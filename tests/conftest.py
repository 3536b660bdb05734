import pytest

from refl2.mvpoly import MultiPoly


class DegreeSpy:
    """The largest degree that any `MultiPoly` product or Frobenius square
    has reached since `top` was last reset to -1."""

    top = -1


@pytest.fixture
def degree_spy(monkeypatch):
    spy = DegreeSpy()

    def watch(method):
        def watched(*args):
            out = method(*args)
            spy.top = max(spy.top, out.deg())
            return out

        return watched

    monkeypatch.setattr(MultiPoly, "__mul__", watch(MultiPoly.__mul__))
    monkeypatch.setattr(MultiPoly, "frobenius", watch(MultiPoly.frobenius))
    return spy
