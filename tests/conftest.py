"""Shared pytest set-up for the ippp tests."""

import os


def pytest_configure(config):
    # pytest's ``pythonpath`` setting reaches only this process; the tests
    # that run ``python -m ippp`` in a child process need ``src`` as well
    src = str(config.rootpath / "src")
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    # as filterwarnings does here: a numpy RuntimeWarning in a child
    # process (overflow, invalid value) fails its test too
    os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"
