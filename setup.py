"""Legacy setup shim.

The project is fully described by pyproject.toml (package metadata and
the ``repro-scan``, ``repro-dig`` and ``repro-tables`` console scripts).
``pip install -e . --no-build-isolation`` needs the ``wheel`` package
next to setuptools; where only setuptools is installed,
``python setup.py develop`` installs the same console scripts.
"""

from setuptools import setup

setup()
