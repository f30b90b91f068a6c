"""One benchmark operation in a fresh process, as a user's CLI call pays it.

    python3 bench/op.py OP_JSON TRACE

OP_JSON holds the operation from ``workloads.py`` (its config already points
at the output directory).  Set-up is import, ``load_config`` and probe
construction; the run is ``run_compute`` (trace workloads) or the
``laplace_reference`` calls (oracle) up to the last output.  With TRACE=1
the program is wrapped by ``spans.Tracer`` first.  The last line of standard
output is one JSON object with the timings and, traced, the per-layer
metrics.
"""

from time import perf_counter

_T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    op_path, traced = argv[1], argv[2] == "1"
    from paths import use_checkout_source

    use_checkout_source()
    from poroseis import cli, oracle
    from poroseis.errors import PoroseisError

    import_s = perf_counter() - _T0
    tracer = None
    if traced:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    t_setup = perf_counter()
    with open(op_path, encoding="utf-8") as fh:
        op = json.load(fh)
    setup = cli.load_config(op["config"])
    probes = [(name, oracle.default_probe(setup.model, setup.receivers[i], s,
                                          n=setup.verify_n))
              for i, s, name in op.get("channels", [])]
    setup_s = import_s + perf_counter() - t_setup

    if tracer is not None:
        tracer.phase = "run"
    err = io.StringIO()
    values = []
    t_run = perf_counter()
    with contextlib.redirect_stderr(err):
        if probes:
            try:
                values = [oracle.laplace_reference(probe, setup.model, name)
                          for name, probe in probes]
                rc = 0
            except PoroseisError as exc:
                print(f"numerical failure: {exc}", file=sys.stderr)
                rc = 4
        else:
            rc = cli.run_compute(setup, threads=1, quiet=True)
    run_s = perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "import_s": import_s, "setup_s": setup_s,
              "run_s": run_s, "peak_rss_mb": peak_rss_mb, "values": values,
              "stderr": err.getvalue()}
    if tracer is not None:
        result["layers"], result["absent"] = layer_metrics(
            tracer, op.get("live_samples", 0))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
