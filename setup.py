"""Setuptools configuration for the ``repro`` package.

``pip install -e .`` (add ``--no-build-isolation`` in environments without
the ``wheel`` package) installs the package from ``src/`` together with the
``repro-count`` console script, the same CLI as ``python -m repro``.

NumPy and NetworkX are hard dependencies: the random generators, the DLM
estimator and the graph workloads import NumPy unconditionally, and the
columnar CSP engine (``engine="columnar"``) is vectorized with it.

The ``bench`` extra pulls in the pytest-benchmark harness used by the
modules under ``benchmarks/``; the engine speedup recorder
(``python benchmarks/record_perf.py [--smoke]``, which appends to
``BENCH_engine.json``) needs no extras.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "networkx"],
    extras_require={
        "bench": ["pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro-count=repro.cli:main"]},
)
