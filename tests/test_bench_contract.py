"""The benchmark's tracer wraps pharmonic functions by name; a rename under
src/ must fail here rather than in the next traced benchmark run."""

import importlib.util
from pathlib import Path

from pharmonic import cli, expressions, jets, operators, reports, symcalc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_name_it_wraps(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    before = operators.laplacian
    with tracer.installed(cli, operators, expressions, symcalc, reports):
        assert operators.laplacian is not before
        # one small run through the wrapped entry points and their counter hooks
        assert cli.main(["flag", "--blocks", "1,1,2", "--p", "2", "--samples", "2"]) == 0
    capsys.readouterr()
    assert operators.laplacian is before
    spans, counts = tracer.take()
    names = {span[0] for span in spans}
    assert {"cli.main", "operators.conditioned_sample", "operators.invariance", "group.sample"} <= names
    assert counts["operators.conditioned_sample.accepted"] == 2
    assert counts["reports.bytes"] > 0
    # the microbench's jet builder and kernels at every depth it walks:
    # deeper jets reach JetScalar operators that shallower ones do not
    for depth in range(1, 5):
        a = tracing.nested_jet(jets, 0.7 + 0.2j, depth)
        b = tracing.nested_jet(jets, 1.3 - 0.4j, depth)
        assert isinstance(a * b, jets.JetScalar), depth
        assert isinstance(jets.jlog(a), jets.JetScalar), depth
