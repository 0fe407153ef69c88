"""Command line behavior: formats, golden table, exit codes, determinism."""

import argparse
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from markoff import cli, graph, lifts
from markoff.errors import DomainError
from markoff.words import PathWord

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seed_paths_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "seed-paths")
    assert code == 0
    want = (GOLDEN / "seed_paths.txt").read_text()
    # whitespace-normalized comparison
    got_tokens = [line.split() for line in out.strip().splitlines()]
    want_tokens = [line.split() for line in want.strip().splitlines()]
    assert got_tokens == want_tokens


def test_seed_paths_range_is_prefix(capsys):
    code, out, _ = run_cli(capsys, "seed-paths", "--primes", "5..61")
    assert code == 0
    whole = (GOLDEN / "seed_paths.txt").read_text().splitlines()
    assert out.strip().splitlines() == whole[:16]


def test_cage_stats_csv(capsys):
    code, out, _ = run_cli(capsys, "cage-stats", "--primes", "5..61")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CAGE_CSV_HEADER
    shares = []
    for row in lines[1:]:
        p, vertices, cage, extra, share, heur = row.split(",")
        p, vertices, cage, extra = int(p), int(vertices), int(cage), int(extra)
        assert vertices == graph.vertex_count_formula(p)
        assert 0 < cage <= vertices and 0 <= extra
        assert cage + extra <= vertices
        shares.append(float(share))
        assert 0 < float(heur) < 1
        if p == 31:
            assert math.isclose(float(heur), 0.307814, abs_tol=1e-5)
    assert all(0 < s <= 100 for s in shares)


def test_cage_counts_against_orbit_oracle():
    p = 13
    vertices, cage, extra = cli.cage_counts(p)
    pts = oracles.surface_points(p)
    assert vertices == len(pts)
    want_cage = want_extra = 0
    for x in pts:
        orders = [oracles.matrix_order(c, p) for c in x]
        if any(o in (p - 1, p + 1, 2 * p) for o in orders):
            want_cage += 1
        elif p in orders:
            want_extra += 1
    assert (cage, extra) == (want_cage, want_extra)


def test_level_dist_counts(capsys):
    code, out, _ = run_cli(capsys, "level-dist", "--level", "5", "--bins", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.LEVEL_CSV_HEADER
    assert sum(int(r.split(",")[2]) for r in lines[1:]) == 48
    assert len(lines) - 1 <= 8


def test_path_route_example(capsys):
    code, out, _ = run_cli(capsys, "path", "-p", "29", "--to", "1,2,5")
    assert code == 0 and out.strip() == "r1^2"


def test_path_bfs_replays(capsys):
    code, out, _ = run_cli(capsys, "path", "-p", "29", "--to", "1,2,5",
                           "--method", "bfs")
    assert code == 0
    word = PathWord.parse(out.strip())
    assert word.apply_mod((1, 1, 1), 29) == (1, 2, 5)


def test_lift_exact(capsys):
    code, out, _ = run_cli(capsys, "lift", "-p", "29", "--to", "1,2,5")
    assert code == 0
    assert out.splitlines() == ["word: r1^2", "lift: 1,2,5"]


def test_lift_log_domain(capsys):
    # find a target mod 61 whose constructed lift outgrows a 40-digit cap
    from markoff.paths import construct_path
    target = None
    for x in oracles.surface_points(61):
        word = construct_path(61, x).word
        if lifts.replay_integer(word).log_size > 40 * math.log(10) * 1.5:
            target = x
            break
    assert target is not None
    code, out, _ = run_cli(capsys, "lift", "-p", "61",
                           "--to", f"{target[0]},{target[1]},{target[2]}",
                           "--cap-digits", "40")
    assert code == 0
    lift_line = out.splitlines()[1]
    assert lift_line.startswith("lift: log10_size=")
    assert float(lift_line.split("=")[1]) > 40


def test_classify_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "-p", "11", "--to", "1,1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2] == "x3=2: elliptic, ord 12, maximal: yes"
    assert lines[3] == "point in cage: yes"


def test_connectivity_p31(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "-p", "31")
    assert code == 0
    assert out.strip() == "p=31: connected, 868 vertices"


def test_export_dot_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "export", "-p", "5", "--format", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph markoff_5 {" and lines[-1] == "}"
    assert run_cli(capsys, "export", "-p", "5") == (0, out, "")
    dest = tmp_path / "g.csv"
    code, out, _ = run_cli(capsys, "export", "-p", "5", "--format", "csv",
                           "--out", str(dest))
    assert code == 0 and out == ""
    rows = dest.read_text().strip().splitlines()
    assert rows[0] == graph.VERTEX_CSV_HEADER
    assert len(rows) == 1 + graph.vertex_count_formula(5)


def test_connectivity_exit_4_when_disconnected(capsys, monkeypatch):
    monkeypatch.setattr(cli, "connectivity_check",
                        lambda p, cap: graph.ComponentReport(p, [30, 10]))
    code, out, _ = run_cli(capsys, "connectivity", "-p", "5")
    assert code == 4
    assert out == "p=5: disconnected, 40 vertices in components 30 10\n"


def test_bounds_row(capsys):
    code, out, _ = run_cli(capsys, "bounds", "-p", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == lifts.BOUND_CSV_HEADER
    vals = lines[1].split(",")
    assert vals[0] == "31"
    assert math.isclose(float(vals[1]), math.log10(96 * 63 ** 4), abs_tol=1e-5)
    assert float(vals[6]) > 0  # certified expansion bound


def test_exit_code_domain_errors(capsys):
    assert run_cli(capsys, "path", "-p", "9", "--to", "1,1,2")[0] == 2
    assert run_cli(capsys, "path", "-p", "11", "--to", "1,1,3")[0] == 2
    assert run_cli(capsys, "path", "-p", "11", "--to", "0,0,0")[0] == 2
    assert run_cli(capsys, "seed-paths", "--primes", "5..3")[0] == 2
    assert run_cli(capsys, "classify", "-p", "11")[0] == 2
    code, _, err = run_cli(capsys, "path", "-p", "11", "--to", "1,1,x")
    assert code == 2 and "error:" in err
    # composite that passes Miller-Rabin on the bases 2..37
    code, out, _ = run_cli(capsys, "classify", "-p", "318665857834031151167461",
                           "--to", "1,1,1")
    assert code == 2 and out == ""


def test_lift_log_size_keeps_at_most_16_significant_digits(capsys, monkeypatch):
    # doubles near 3.5e16 are 4 apart, so fixed-point digits there are noise
    ln_size = 3.5e16 * lifts.LN10
    monkeypatch.setattr(cli.lifts, "replay_integer",
                        lambda word, digit_cap: lifts.LiftTriple(None, (0.0, 1.0, ln_size), False))
    code, out, _ = run_cli(capsys, "lift", "-p", "29", "--to", "1,2,5")
    assert code == 0
    value = out.splitlines()[1].removeprefix("lift: log10_size=")
    assert math.isclose(float(value), ln_size / lifts.LN10, rel_tol=1e-15)
    assert len(value.split("e")[0].replace(".", "").lstrip("0")) <= 16


def test_exit_code_cap_refusals(capsys):
    code, _, err = run_cli(capsys, "path", "-p", "131", "--to", "1,1,2",
                           "--method", "bfs", "--cap-enum", "100")
    assert code == 3 and "cap" in err
    assert run_cli(capsys, "bounds", "-p", "251", "--cap-spectral", "200")[0] == 3


def test_route_fallback_honours_cap_enum(capsys, monkeypatch):
    # force the constructive route to fail, so that the BFS fallback answers
    from markoff import paths
    from markoff.errors import ConstructionError

    def refuse(x, cls):
        raise ConstructionError("forced")

    monkeypatch.setattr(paths, "_constructive_stages", refuse)
    code, out, err = run_cli(capsys, "path", "-p", "101", "--to", "1,2,5", "--cap-enum", "100")
    assert code == 3 and out == "" and "cap 100 " in err
    code, out, _ = run_cli(capsys, "path", "-p", "101", "--to", "1,2,5", "--cap-enum", "200")
    assert code == 0
    assert oracles.replay_mod(PathWord.parse(out.strip()).steps, 101) == (1, 2, 5)


def test_connectivity_refuses_past_int32_vertex_ids(capsys, monkeypatch):
    # 46349 is the least prime whose vertex count overflows int32 ids; the
    # refusal must come before any enumeration, whatever --cap-enum says.
    def refuse(p):
        raise AssertionError("enumerated past the int32 id limit")

    monkeypatch.setattr(graph, "surface_arrays", refuse)
    code, out, err = run_cli(capsys, "connectivity", "-p", "46349", "--cap-enum", "100000")
    assert code == 3 and out == "" and "int32" in err


def test_path_route_past_enumeration_cap(capsys):
    # No rot_1 power up to 5 puts (1,1,1) in the cage mod 3121, and the
    # graph is too large to enumerate, so only the constructive seed leg
    # can answer.
    code, out, _ = run_cli(capsys, "path", "-p", "3121", "--to", "1,2,5")
    assert code == 0
    word = PathWord.parse(out)
    assert oracles.replay_mod(word.steps, 3121) == (1, 2, 5)


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "cage-stats", "--primes", "5..31")
    second = run_cli(capsys, "cage-stats", "--primes", "5..31")
    assert first == second
    b1 = run_cli(capsys, "bounds", "-p", "31", "--seed", "7")
    b2 = run_cli(capsys, "bounds", "-p", "31", "--seed", "7")
    assert b1 == b2


@pytest.mark.parametrize("argv, want", [
    (("connectivity", "--primes", "5..61"),
     "7a70b1a2739180b9b84419c91753da5a1f2858bdc1691242f5f46280244d948d"),
    (("bounds", "--primes", "5..61"),
     "02a0c00609f179593bf33d810c794a52c46305176d4a7613a4abd1529d2f9e13"),
], ids=["connectivity", "bounds"])
def test_graph_command_stdout_digest(capsys, argv, want):
    # sha256 of stdout: the BFS and spectral layers must keep every byte
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_pool_map_caps_workers_at_cpu_count(monkeypatch):
    import concurrent.futures

    started = []

    class SerialPool:
        """Records max_workers and maps in-process, so no worker starts."""

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setenv("MARKOFF_THREADS", "1000000")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._pool_map(abs, list(range(-10, 0))) == list(range(10, 0, -1))
    assert started == [3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # count unknown: serial
    assert cli._pool_map(abs, [-1, -2]) == [1, 2]
    assert started == [3]


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    monkeypatch.setenv("MARKOFF_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._pool_map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2) == ["1", "1"]
    assert "OPENBLAS_NUM_THREADS" not in os.environ  # the parent's environment is restored


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "markoff", "seed-paths", "--primes", "5..13"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].split() == \
        "5 rot1^1 : (1,1,1), (1,1,2)".split()


def test_pool_map_matches_serial(capsys, monkeypatch):
    serial = run_cli(capsys, "seed-paths", "--primes", "5..31")
    monkeypatch.setenv("MARKOFF_THREADS", "2")
    pooled = run_cli(capsys, "seed-paths", "--primes", "5..31")
    assert pooled == serial


def test_parse_point_and_range():
    assert cli.parse_point(" 1, 2,5") == (1, 2, 5)
    assert cli.parse_prime_range("5..13") == [5, 7, 11, 13]
    with pytest.raises(Exception):
        cli.parse_point("1,2")
    with pytest.raises(Exception):
        cli.parse_prime_range("10-20")


def test_digest_script_expects_exactly_its_names():
    import digests

    assert set(digests.EXPECTED) == set(digests.NAMES)


# Each command's flags besides -h/--help and --out, as the parser accepts them.
ACCEPTED = {
    "seed-paths": "-p --prime --primes",
    "cage-stats": "-p --prime --primes --cap-enum",
    "level-dist": "--level --bins --cap-digits",
    "path": "-p --prime --to --method --cap-enum",
    "lift": "-p --prime --to --method --cap-enum --cap-digits",
    "classify": "-p --prime --to",
    "connectivity": "-p --prime --primes --cap-enum",
    "export": "-p --prime --format --cap-enum",
    "bounds": "-p --prime --primes --seed --cap-enum --cap-spectral",
}
# A valid value for every flag any command reads.
FLAG_VALUES = {
    "-p": "7", "--primes": "5..7", "--to": "1,1,2", "--method": "bfs", "--seed": "9",
    "--cap-enum": "100", "--cap-spectral": "100", "--cap-digits": "3", "--level": "2",
    "--bins": "3", "--format": "csv",
}


def _settable(name):
    return [a for a in cli.command_parser(name)._actions if a.option_strings != ["-h", "--help"]]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_accepts_exactly_its_flags(name):
    got = {s for a in cli.command_parser(name)._actions for s in a.option_strings}
    assert got == set(ACCEPTED[name].split()) | {"-h", "--help", "--out"}


def test_settable_cli_values_count():
    assert set(ACCEPTED) == set(cli.COMMANDS)
    assert sum(len(_settable(name)) for name in cli.COMMANDS) == 39


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_rejects_flags_it_does_not_read(capsys, name):
    accepted = {s for a in _settable(name) for s in a.option_strings}
    base = ["--level", "2"] if name == "level-dist" else []  # its one required flag
    rejected = [f for f in FLAG_VALUES if f not in accepted]
    assert rejected
    for flag in rejected:
        with pytest.raises(SystemExit) as exc:
            cli.main([name, *base, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_classify_rejects_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "-p", "11", "--to", "1,1,1", "--seed", "9"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and "--seed" in captured.err


def test_flag_before_the_command_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-p", "11", "path", "--to", "1,1,2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "-p goes after the command" in captured.err
    assert "markoff COMMAND [flags]" in captured.err


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert len(cli.COMMANDS) == 9
    for name, (_, _, text) in cli.COMMANDS.items():
        assert [name, text] in lines


def test_command_help_names_only_its_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["path", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--to" in out and "--cap-enum" in out
    assert "--seed" not in out and "--primes" not in out


def test_main_builds_only_the_invoked_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "classify", "-p", "11", "--to", "1,1,2")[0] == 0
    assert built == ["markoff", "markoff classify"]


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_count_is_a_domain_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MARKOFF_THREADS", value)
    with pytest.raises(DomainError, match="MARKOFF_THREADS"):
        cli._pool_map(abs, [-1])
    code, out, err = run_cli(capsys, "seed-paths", "--primes", "5..13")
    assert code == 2 and out == "" and "MARKOFF_THREADS" in err
