"""Fixtures shared by the test modules."""

import contextlib

import pytest

from tinyvitlab import model as M
from tinyvitlab import optim as O
from tinyvitlab import train as TR


@pytest.fixture
def phase_clock(monkeypatch):
    """A context manager under which `time.perf_counter` is a fake clock that
    only the profiled phases advance, each by its own power of two: a
    train-mode `M.forward` by 1 s, `TR.backward` by 2 s, `O.step` by 4 s and
    `TR._eval_logits` by 8 s: the eval phase is one such call, whatever
    number of shards its eval-mode forwards run in."""

    @contextlib.contextmanager
    def installed():
        now = [0.0]

        def advancing(fn, seconds):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                now[0] += seconds(kwargs)
                return out
            return call

        with monkeypatch.context() as mp:
            mp.setattr(TR.time, "perf_counter", lambda: now[0])
            mp.setattr(M, "forward", advancing(
                M.forward, lambda kw: 1.0 if kw.get("mode") == "train" else 0.0))
            mp.setattr(TR, "_eval_logits", advancing(TR._eval_logits, lambda kw: 8.0))
            mp.setattr(TR, "backward", advancing(TR.backward, lambda kw: 2.0))
            mp.setattr(O, "step", advancing(O.step, lambda kw: 4.0))
            yield

    return installed
