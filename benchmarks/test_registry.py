"""Every figure and table of the ``repro figures`` registry, benched.

One test per registered figure id: the full-profile
:class:`~repro.figures.registry.FigureSpec` computes its metrics from a
summary map that simulates, through :func:`common.run`, only the
(benchmark, kind) pairs the compute function reads — and only pairs of
the figure's own spec, as under ``repro figures`` — then every
:class:`~repro.figures.registry.Expectation` is checked with
:func:`~repro.figures.registry.evaluate_check`.  A newly registered
figure is benched here with no new file::

    pytest benchmarks/test_registry.py -k fig11 -s
"""

import pytest
from common import banner, pedantic, result, run

from repro import harness
from repro.figures import describe_check, evaluate_check, figure_ids, \
    figure_registry

REGISTRY = figure_registry()


class Summaries(dict):
    """``(benchmark, kind) -> RunSummary``, simulated on first read.

    A pair outside ``points`` raises :class:`KeyError`, as it would in
    the pivot ``run_figures`` hands a compute function.
    """

    def __init__(self, points):
        super().__init__()
        self.points = points

    def __missing__(self, key):
        if key not in self.points:
            raise KeyError(key)
        summary = run(*key)
        assert 0.0 <= summary.texture_hit_ratio <= 1.0, key
        self[key] = summary
        return summary


def summaries_for(figure) -> Summaries:
    spec = figure.spec
    if spec is None:
        return Summaries(frozenset())
    # The map is keyed by (benchmark, kind) and common.run simulates at
    # the harness geometry, so only such a spec without axes resolves
    # the same points here as under ``repro figures``.
    assert (spec.width, spec.height, spec.frames) == \
        (harness.WIDTH, harness.HEIGHT, harness.FRAMES), spec.name
    assert not spec.axes, spec.name
    return Summaries(frozenset((b, k) for b in spec.benchmarks
                               for k in spec.kinds))


@pytest.mark.parametrize("fid", figure_ids())
def test_figure(benchmark, fid):
    figure = REGISTRY[fid]
    data = pedantic(benchmark, figure.compute, summaries_for(figure))
    banner(figure.title, figure.paper_claim)
    paper = {e.key: e.paper for e in figure.expectations}
    for key, value in data.metrics.items():
        result(f"{fid}.{key}", value, paper=paper.get(key))
    failed = [f"{e.key} = {data.metrics[e.key]!r}, expected "
              f"{describe_check(e.check)} ({e.claim})"
              for e in figure.expectations
              if not evaluate_check(e.check, e.key, data.metrics)]
    assert not failed, failed
