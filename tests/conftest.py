import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fflab",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fflab")


@pytest.fixture
def count_packed(monkeypatch):
    """Wraps a module's _pack (fflab.gf2 or fflab.gfp) so that every
    column int it yields is appended to a list; returns that list."""
    def count(module):
        drawn, pack = [], module._pack

        def counted(*args):
            for v in pack(*args):
                drawn.append(v)
                yield v

        monkeypatch.setattr(module, "_pack", counted)
        return drawn
    return count
