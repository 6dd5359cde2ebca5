"""A fresh interpreter that times ``import wigscale.cli`` and, traced, runs one CLI command.

    python3 bench/cli_child.py --import-only
    python3 bench/cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

The first form prints the import time and the number of modules the import
added. The second also wraps the traced functions, including ``cli.main``, runs
``wigscale.cli.entry`` with the given arguments, writes the import figures
and the spans to SPANS_JSON and exits with the CLI's exit code.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]


def main(argv):
    # json and the tracer come after the timed import, which so runs with only the start-up modules loaded
    before = len(sys.modules)
    start = time.perf_counter()
    import wigscale.cli

    figures = {"import_s": time.perf_counter() - start, "import_modules": len(sys.modules) - before}
    import json

    if argv == ["--import-only"]:
        print(json.dumps(figures))
        return 0
    from bench import tracing

    spans_path, command = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    sys.argv = ["wigscale", *command]
    code = 0
    try:
        wigscale.cli.entry()
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({**figures, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
