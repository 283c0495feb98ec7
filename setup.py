"""Setuptools entry point.

The metadata lives in ``setup.cfg``; this file exists so that
``pip install -e .`` works in fully offline environments (the legacy
editable path needs neither network access nor the ``wheel`` package).
"""

from setuptools import setup

setup()
