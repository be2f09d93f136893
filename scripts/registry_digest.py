"""One digest of every registry scenario's output files and of `verify all`.

    python3 scripts/registry_digest.py <src-dir> <out-dir>

Imports isoflow from <src-dir> and nowhere else. Runs each registry scenario
with ``snapshots = all`` into <out-dir>/<name>/ (<out-dir> must be absent or
empty), then the `isoflow verify all` suites. Prints the number of files
written, the number of verify lines and one sha256 over the files' relative
paths and bytes and the verify lines. Two checkouts whose outputs are
byte-identical print the same three lines:

    python3 scripts/registry_digest.py src /tmp/digest-new
    python3 scripts/registry_digest.py ../parent/src /tmp/digest-old
"""

import os

# one BLAS thread, as in benchmarks/run.py, so that any BLAS call rounds
# the same way from run to run
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    src, out = (os.path.abspath(arg) for arg in argv)
    if os.path.exists(out) and os.listdir(out):
        sys.exit(f"registry_digest: {out} is not empty")
    sys.path.insert(0, src)
    import isoflow
    from isoflow.cli import main as isoflow_main
    from isoflow.scenario import registry, run_scenario
    if not os.path.abspath(isoflow.__file__).startswith(src + os.sep):
        sys.exit(f"registry_digest: isoflow resolved to {isoflow.__file__}, not {src}")

    for name, sc in registry().items():
        sc = replace(sc, outputs=replace(sc.outputs, snapshots="all"))
        run_scenario(sc, out_dir=os.path.join(out, name))
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = isoflow_main(["verify", "all"])
    lines = text.getvalue().splitlines()

    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), out)
                   for d, _, files in os.walk(out) for f in files)
    for path in paths:
        digest.update(path.encode() + b"\0")
        with open(os.path.join(out, path), "rb") as fh:
            digest.update(fh.read() + b"\0")
    digest.update("\n".join(lines).encode())
    print(f"files {len(paths)}")
    print(f"verify lines {len(lines)} (exit {code})")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
