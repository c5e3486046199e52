import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this binframes."""
    import binframes
    src = os.path.dirname(os.path.dirname(binframes.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)
