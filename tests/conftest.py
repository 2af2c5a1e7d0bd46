import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_report_header(config):
    """Name the stlmon under test: pyproject.toml's `pythonpath = ["src"]`
    puts this checkout's `src` ahead of PYTHONPATH."""
    import stlmon

    return f"stlmon under test: {os.path.dirname(stlmon.__file__)}"
