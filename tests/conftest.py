import sys
from pathlib import Path

import pytest

from normforge import cli, designer, incentives, sim, stationary

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) -> a dict counting calls to those normforge
    functions, patched in every module that looks them up by name."""
    def install(*names):
        counts = dict.fromkeys(names, 0)
        for module in (stationary, incentives, designer, cli, sim):
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue

                def counted(*args, _fn=fn, _name=name, **kw):
                    counts[_name] += 1
                    return _fn(*args, **kw)
                monkeypatch.setattr(module, name, counted)
        return counts
    return install
