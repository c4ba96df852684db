"""Packaging for the Mint reproduction.

Kept as a plain ``setup.py`` (no pyproject build-system table) so
editable installs work on both modern pip (PEP 517 with the default
setuptools backend) and minimal environments without ``wheel``
(``pip install -e . --no-use-pep517``).  CI's install-based job runs
``pip install -e .`` and then the test suite with no ``PYTHONPATH``
hack.
"""

from setuptools import find_packages, setup

setup(
    name="mint-repro",
    version="0.3.0",
    description=(
        "Reproduction of Mint: cost-effective distributed tracing with "
        "pattern-based commonality/variability analysis"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # Runtime is stdlib-only by design; test/benchmark extras document
    # what CI installs on top.
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
        "lint": ["ruff"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "License :: OSI Approved :: MIT License",
        "Topic :: System :: Distributed Computing",
        "Topic :: System :: Monitoring",
    ],
)
