"""Ablation: robustness of the conclusions to timing-model parameters.

The headline comparison (LIBRA >= PTR > baseline on memory-intensive
apps) should not hinge on arbitrary simulator constants.  This bench
re-runs a representative benchmark pair under perturbed model parameters:

* the coupling interval (500 / 1000 / 2000 cycles),
* the frame-buffer compression extension on/off,

and checks the ordering survives every variant.
"""

from common import banner, pedantic, result, run

from repro.stats import format_table

BENCH = "GrT"
INTERVALS = (500, 1000, 2000)


def _speedups(**settings):
    cycles = {kind: run(BENCH, kind, **settings).total_cycles
              for kind in ("baseline", "ptr", "libra")}
    return (cycles["baseline"] / cycles["ptr"],
            cycles["baseline"] / cycles["libra"])


def collect():
    rows = {}
    for interval in INTERVALS:
        rows[f"interval {interval}"] = _speedups(interval_cycles=interval)
    rows["fb compression 0.5"] = _speedups(fb_compression_ratio=0.5)
    return rows


def test_ablation_model_robustness(benchmark):
    rows = pedantic(benchmark, collect)
    banner("Ablation — timing-model robustness (GrT)",
           "the LIBRA >= PTR > baseline ordering survives model "
           "perturbations")
    table = [[label, f"{ptr:.3f}", f"{libra:.3f}"]
             for label, (ptr, libra) in rows.items()]
    print(format_table(("variant", "PTR speedup", "LIBRA speedup"), table))
    for label, (ptr, libra) in rows.items():
        result(f"robust.{label.replace(' ', '_')}.ptr", ptr)
        result(f"robust.{label.replace(' ', '_')}.libra", libra)

    for label, (ptr, libra) in rows.items():
        assert ptr > 1.0, label
        assert libra > ptr * 0.97, label