"""Legacy setup shim: offline environments lack the `wheel` package that
PEP 660 editable installs require, so `pip install -e . --no-build-isolation`
falls back to this classic setuptools path.

With no pyproject.toml/setup.cfg in the repo, everything a built wheel
ships must be declared here: the src layout is mapped explicitly so every
subpackage (including repro.fastframe.storage and friends added since the
first export audit) lands in site-packages — a bare ``setup()`` would
build an empty wheel that imports from nowhere.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    description=(
        "Reproduction of 'Rapid Approximate Aggregation with "
        "Distribution-Sensitive Interval Guarantees' (ICDE 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # `import repro.api` imports scipy.stats / scipy.optimize at module
    # level (hypergeometric COUNT bounds, the asymptotic bounder,
    # expression range bounds), so scipy is a hard dependency.
    install_requires=["numpy", "scipy"],
    # What the test-suite imports beyond the package's own dependencies;
    # CI installs exactly this (`pip install -e ".[test]"`).
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
