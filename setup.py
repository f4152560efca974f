"""Setup shim: enables legacy editable installs where `wheel` is absent.

All metadata lives in ``pyproject.toml``'s ``[project]`` table.
"""
from setuptools import setup

setup()
