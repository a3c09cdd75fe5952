import warnings
from pathlib import Path

import epivariants


def test_sources_compile_without_warnings():
    # compile() parses the text itself, so cached .pyc files cannot hide a warning
    sources = sorted(Path(epivariants.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
