"""Setuptools shim for offline installs.

All metadata lives in pyproject.toml.  Without network access pip cannot
fetch a build backend for an isolated build, so install in development
mode with the setuptools already present::

    python setup.py develop --no-deps
"""

from setuptools import setup

setup()
