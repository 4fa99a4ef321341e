"""A pytest plugin that unloads the compiled kernel before any test module
is collected, so the tests run the numpy paths end to end: every GF(p)
rank, solve, product and realize in numpy, certification through
`realize_plan` and `_recovered`, and every channel draw through
`channel.trial_rng`.  Tests that need the kernel skip themselves.

    PYTHONPATH=src python -m pytest -p tests.numpy_kernels tests/test_verifier.py tests/test_acceptance.py
"""

from dofbc import channel, gf


def pytest_configure(config):
    gf._KERNEL = None
    channel._KERNEL = None
