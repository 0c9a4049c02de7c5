"""Shared test settings and fixtures.

The hypothesis profile draws the same examples on every run and sets no
per-example deadline, so the property tests neither flake nor time out
on a machine whose speed varies from run to run, and it keeps no example
database on disk.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import settings

import fracgreen

settings.register_profile("fracgreen", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("fracgreen")


@pytest.fixture
def python_env():
    """Environment of a fresh interpreter that imports the fracgreen under
    test."""
    src = os.path.dirname(os.path.dirname(fracgreen.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.fixture
def run_python(python_env):
    """Run code in a fresh interpreter that imports the fracgreen under
    test; returns its stdout."""
    def run(code):
        return subprocess.run([sys.executable, "-c", code], env=python_env,
                              capture_output=True, text=True,
                              check=True).stdout
    return run
