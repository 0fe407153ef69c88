"""sha256 digests of `markoff` stdout, for checking that a change keeps output.

    PYTHONPATH=src python tests/digests.py [NAME ...]

prints `<sha256>  <NAME>  ok|CHANGED` for each NAME (default: all, in the
order below), comparing against the digest recorded in EXPECTED, and exits 1
if any named digest changed.  It exits 1 before hashing anything when the
names in EXPECTED are not exactly the digest names.
Each CLI digest hashes the stdout of the listed CLI runs, concatenated in order:

    seed-paths         seed-paths --primes 5..199
    cage-stats         cage-stats --primes 5..300
    connectivity       connectivity --primes 5..199
    connectivity-band  connectivity --primes 940..1000 (the graph-sweep band)
    bounds             bounds --primes 5..199
    export-dot         export -p 31 --format dot
    export-csv         export -p 31 --format csv
    criterion-10-path  path -p P --to X for each criterion-10 target
    criterion-10-lift  lift -p P --to X --cap-digits 10000, same targets
    level-dist         level-dist --level 14, --level 18, then --level 18
                       --cap-digits 30 (which forces log-domain steps)
    lift-2017          lift -p 2017 --to T --cap-digits 50000 for each of the
                       20 p = 2017 targets T in tests/golden/route_words.txt
                       (the lift-batch traffic of the benchmark)

The `classes` digest is computed by the library, not by the CLI: it hashes
one line `p,v,kind,order,maximal` (maximal as 0 or 1) per value v in
0..p-1 of every prime 5 <= p <= 3000, from `Classifier(p).classify(v)`.

The criterion-10 targets are those of test_criterion_10_path_soundness: all
868 points of X*(31), then 500 per prime 5..199 drawn from random.Random(10),
22868 in all.  The lift digest takes a few minutes.

EXPECTED holds the digests each name gave on a 2-core x86-64 Linux machine
with numpy's default BLAS thread count.  The `bounds` bytes can depend on
that count: the last digits of the eigenvalue estimate do, and the bytes
agree only while the six-digit rounding of h hides them.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import oracles  # noqa: E402
from markoff import cli  # noqa: E402
from markoff.core import Classifier  # noqa: E402
from markoff.field import is_probable_prime  # noqa: E402
from test_acceptance import PRIMES_199, _random_point  # noqa: E402


def criterion_10_targets():
    for x in oracles.surface_points(31):
        yield 31, x
    rng = random.Random(10)
    for p in PRIMES_199:
        small = oracles.surface_points(p) if p <= 31 else None
        for _ in range(500):
            yield p, (rng.choice(small) if small else _random_point(rng, p))


def _golden_2017_lifts():
    lines = (Path(__file__).parent / "golden" / "route_words.txt").read_text().splitlines()
    for p, x, _ in (ln.split() for ln in lines if ln.strip()):
        if p == "2017":
            yield ["lift", "-p", p, "--to", x, "--cap-digits", "50000"]


def _per_target(command, *extra):
    for p, x in criterion_10_targets():
        yield [command, "-p", str(p), "--to", ",".join(map(str, x)), *extra]


RUNS = {
    "seed-paths": lambda: [["seed-paths", "--primes", "5..199"]],
    "cage-stats": lambda: [["cage-stats", "--primes", "5..300"]],
    "connectivity": lambda: [["connectivity", "--primes", "5..199"]],
    "connectivity-band": lambda: [["connectivity", "--primes", "940..1000"]],
    "bounds": lambda: [["bounds", "--primes", "5..199"]],
    "export-dot": lambda: [["export", "-p", "31", "--format", "dot"]],
    "export-csv": lambda: [["export", "-p", "31", "--format", "csv"]],
    "criterion-10-path": lambda: _per_target("path"),
    "criterion-10-lift": lambda: _per_target("lift", "--cap-digits", "10000"),
    "level-dist": lambda: [["level-dist", "--level", "14"], ["level-dist", "--level", "18"],
                           ["level-dist", "--level", "18", "--cap-digits", "30"]],
    "lift-2017": lambda: list(_golden_2017_lifts()),
}
NAMES = [*RUNS, "classes"]


EXPECTED = {
    "seed-paths": "96462db892ca1028e5395008a9d2413d5311db3d58b676566bc0522a2a0c2388",
    "cage-stats": "ddb0d466f47a8f9ab7d5b78bfe499d0aff0a0111f43af507a00f7739316ecf24",
    "connectivity": "30273265339a9cecea4f39205842627fa06e7bd1c29b01bab2e36d8a9e46d2dc",
    "connectivity-band": "55976e3a4122304fff6b6e2c9d1e08d995befd4595a4d106eaf3bae36d098050",
    "bounds": "28160ce7b0ad35d8a7eaca2ad1ccb7fa7b573f3af3cfa7cd91ed52753cefffed",
    "export-dot": "059ba032bb3e16c16490d5dc1f6e64e0eabb206943e2550f6a2881f2d08116a8",
    "export-csv": "7927ba12a8759eb8ab9df65755c067e85f848dc4fbcf1546fa13909e677efdbd",
    "criterion-10-path": "1e1a807d15aae9b7bc8586175443fe4c32eb95fde4eaf19cdbcd47409c16825a",
    "criterion-10-lift": "93717c39232ee3caccc16830869ffe2fb0952b2f36e995f1425ba2c66d283fac",
    "level-dist": "6266e8ae112a474b081a5bac9ca960c486bbfc962c913c1d49928d7c420b2fa9",
    "lift-2017": "ccad7b067c779716ee731a5d410dda5f55321d5bcf4736b99e87c0325831fe95",
    "classes": "dcd736cccbf532cc674a6c23b0ae8304f290cb172db3f5350ca8c1e92b54b989",
}


def class_lines():
    for p in range(5, 3001):
        if is_probable_prime(p):
            cls = Classifier(p)
            for v in range(p):
                c = cls.classify(v)
                yield f"{p},{v},{c.kind},{c.order},{int(c.maximal)}\n"


def digest(name: str) -> str:
    h = hashlib.sha256()
    if name == "classes":
        for line in class_lines():
            h.update(line.encode())
        return h.hexdigest()
    for argv in RUNS[name]():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"markoff {' '.join(argv)} exited {code}")
        h.update(buf.getvalue().encode())
    return h.hexdigest()


if __name__ == "__main__":
    if set(EXPECTED) != set(NAMES):
        raise SystemExit(f"EXPECTED names {sorted(EXPECTED)} differ from the digests {NAMES}")
    names = sys.argv[1:] or NAMES
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        raise SystemExit(f"unknown digest {unknown}; choose from {NAMES}")
    changed = False
    for name in names:
        h = digest(name)
        ok = h == EXPECTED[name]
        changed |= not ok
        print(f"{h}  {name}  {'ok' if ok else 'CHANGED'}", flush=True)
    sys.exit(1 if changed else 0)
