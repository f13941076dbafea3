"""Legacy setup shim: offline environments lack the `wheel` package that
PEP 660 editable installs require, so `pip install -e . --no-build-isolation`
falls back to this classic setuptools path.

With no pyproject.toml/setup.cfg in the repo, everything a built wheel
ships must be declared here: the src layout is mapped explicitly so every
subpackage (including repro.fastframe.storage and friends added since the
first export audit) lands in site-packages — a bare ``setup()`` would
build an empty wheel that imports from nowhere.
"""
import re
from pathlib import Path

from setuptools import find_packages, setup

# The one version literal lives in the package; read it without importing
# the package (which needs numpy at build time).
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Rapid Approximate Aggregation with "
        "Distribution-Sensitive Interval Guarantees' (ICDE 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # scipy's optimizer bounds convex and concave expressions; it is
    # imported only when such a bound is derived, not with `import repro.api`.
    install_requires=["numpy", "scipy"],
    # What the test-suite imports beyond the package's own dependencies;
    # CI installs exactly this (`pip install -e ".[test]"`).
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
)
