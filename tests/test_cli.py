import argparse
import copy
import hashlib
import importlib.util
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cobcalc import bundles, cli, equivariant, fgl, linalg, selftest
from cobcalc.cli import main, parse_degree_range, run
from cobcalc.equivariant import GroupPreset, WeylGroupSpec, symmetric_group
from cobcalc.fgl import fgl_sum
from cobcalc.series import RingContext, window_basis
from cobcalc.towers import TowerSlice


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cobcalc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def job(command):
    """The job ``command`` names, parsed and checked as `main` does."""
    argv = command.split()
    return cli.config_from_args(cli.build_parser().parse_args(argv))


def test_parse_degree_range():
    assert parse_degree_range("0..3") == [0, 1, 2, 3]
    assert parse_degree_range("4") == [4]
    assert parse_degree_range("-1..1") == [-1, 0, 1]
    with pytest.raises(cli.ConfigError):
        parse_degree_range("5..2")
    for text in ("0..", "a", "1..x", "..3", ""):
        with pytest.raises(cli.ConfigError, match="--deg"):
            parse_degree_range(text)
    assert len(parse_degree_range(f"1..{cli.MAX_DEGREES}")) == cli.MAX_DEGREES
    for text in (f"0..{10**20}", f"-{10**20}..0", f"0..{cli.MAX_DEGREES}"):
        with pytest.raises(cli.ConfigError, match=f"cap of {cli.MAX_DEGREES} degrees"):
            parse_degree_range(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["bg", "--torder", "2", "--deg"],
        ["tower", "bgm", "--deg"],
    ],
    ids=["bg", "tower-bgm"],
)
@pytest.mark.parametrize("degrees", [f"0..{10**20}", f"-{10**20}..0"])
def test_degree_range_over_the_cap_is_refused_before_expanding(argv, degrees, capsys):
    assert main(argv + [degrees]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "config"
    assert f"cap of {cli.MAX_DEGREES} degrees" in error["message"]
    assert captured.err == ""


def test_fgl_check_additive():
    status, report = run(job("fgl check --kind additive"))
    body = json.loads(report)
    assert status == 0
    assert body["unit"] and body["comm"] and body["assoc"]
    assert body["schema"] == "cobcalc/fgl-check/v1"


def test_fgl_check_all_kinds():
    for kind in ("additive", "multiplicative", "universal"):
        status, report = run(job(f"fgl check --kind {kind}"))
        assert status == 0, report


def test_bg_gl2_additive_dims():
    status, report = run(job("bg --fgl additive --group GL2 --deg 0..3 --torder 3"))
    body = json.loads(report)
    assert status == 0
    assert body["dims"] == {"0": 1, "1": 1, "2": 2, "3": 2}


def test_bg_emit_basis():
    status, report = run(job("bg --fgl additive --group GL2 --deg 1 --torder 2 --emit-basis"))
    body = json.loads(report)
    assert body["basis"]["1"] == ["1 * t1 + 1 * t2"]


def test_bg_validates_window():
    with pytest.raises(Exception):
        run(job("bg --deg 9 --torder 3"))


def test_sif_clean():
    status, report = run(job("sif --fgl universal --rank 2 --samples 5 --seed 1"))
    body = json.loads(report)
    assert status == 0
    assert body["failures"] == 0
    assert body["residual"] == "0"


def test_pbf_clean():
    status, report = run(job("pbf --fgl multiplicative --rank 3 --samples 5"))
    body = json.loads(report)
    assert status == 0
    assert body["trivial_xi_power_zero"] and body["division_oracle_ok"]


def test_flag_clean():
    status, report = run(job("flag --fgl additive --group GL2 --pairs 5"))
    body = json.loads(report)
    assert status == 0
    assert body["multiplicative_ok"] and body["congruence_ok_derived"]
    assert body["weyl_order"] == 2


def test_tower_bgm():
    status, report = run(job("tower bgm --fgl additive --deg 0..2 --levels 6"))
    body = json.loads(report)
    assert status == 0
    for d in ("0", "1", "2"):
        assert body["degrees"][d]["lim_dim"] == 1
        assert body["degrees"][d]["stab_index"] == 0


def test_cli_error_object():
    proc = run_cli("bg", "--group", "GL2", "--deg", "0..9", "--torder", "3")
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["schema"] == "cobcalc/error/v1"
    assert "torder" in body["error"]["message"]


def test_cli_unknown_kind():
    proc = run_cli("fgl", "check", "--kind", "elliptic")
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert "elliptic" in body["error"]["message"]


def test_cli_text_format():
    proc = run_cli("fgl", "check", "--kind", "additive", "--format", "text")
    assert proc.returncode == 0
    assert "assoc: true" in proc.stdout


def test_cli_determinism_quick():
    args = ["sif", "--fgl", "multiplicative", "--rank", "1", "--samples", "3",
            "--seed", "9"]
    out1 = run_cli(*args)
    out2 = run_cli(*args)
    assert out1.stdout == out2.stdout
    assert out1.returncode == out2.returncode == 0


def test_tower_negative_degree_is_rejected(capsys):
    assert main(["tower", "bgm", "--deg=-1..2"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == "cobcalc/error/v1"
    assert "negative" in body["error"]["message"]


def test_tower_accepts_caps_too_small_for_a_law(capsys):
    # the tower reads only the coefficient ring, so max_t = 1 needs no group law
    argv = ["tower", "bgm", "--fgl", "universal", "--max-t", "1", "--deg", "0..1", "--levels", "4"]
    assert main(argv) == 0
    body = json.loads(capsys.readouterr().out)
    ctx = RingContext(1, "universal-rational", 1, body["caps"]["max_w"])
    for d in (0, 1):
        assert body["degrees"][str(d)]["lim_dim"] == len(window_basis(ctx, d, ctx.max_t_order))


def test_bg_accepts_caps_too_small_for_a_law(capsys):
    # the counts read only the coefficient ring; the basis needs the law's log
    argv = ["bg", "--group", "GL2", "--fgl", "universal", "--max-t", "1", "--max-w", "0",
            "--torder", "1", "--deg", "0..1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == {"0": 1, "1": 1}
    assert main(argv + ["--emit-basis"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "invalid"


BG_GL3 = "bg --group GL3 --fgl universal --deg 0..5 --torder 5 --max-t 5 --max-w 4"


def test_plain_bg_builds_no_law(monkeypatch, capsys):
    laws = []
    real = cli._law

    def refused(*args):
        raise AssertionError("plain bg built a group law")

    monkeypatch.setattr(cli, "_law", refused)
    assert main(BG_GL3.split()) == 0
    out = capsys.readouterr().out
    # the stdout digest of the benchmark's bg-gl3 job
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7144e88267fe2dd5ca63e8beec1981e7861ac255e1e1489026280787c8f6dad9"
    )
    monkeypatch.setattr(cli, "_law", lambda *args: laws.append(args) or real(*args))
    assert main(BG_GL3.split() + ["--emit-basis"]) == 0
    assert len(laws) == 1


def test_flag_torus_has_no_congruent_pairs(capsys):
    # torus(2) has no reflection, so no component pairs are compared: the
    # congruence verdict is null, and multiplicativity alone sets the status
    assert main(["flag", "--group", "torus2", "--pairs", "1"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["weyl_order"] == 1 and body["multiplicative_ok"]
    assert body["congruence_ok_derived"] is None


@pytest.mark.parametrize("group", ["GL1", "SL2"])
def test_flag_rank_one_groups_compare_no_pairs(group, capsys):
    assert main(["flag", "--group", group, "--pairs", "2"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["multiplicative_ok"] and body["congruence_ok_derived"] is None


def test_flag_builds_one_map_per_weyl_element(monkeypatch, capsys):
    built = []

    def counting(w, law, ctx):
        built.append(w)
        return equivariant.weyl_map(w, law, ctx)

    monkeypatch.setattr(selftest, "weyl_map", counting)
    assert main(["flag", "--group", "GL3", "--pairs", "4"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["weyl_order"] == len(set(built)) == len(built) == 6


def test_weyl_enumeration_cap_is_refused(monkeypatch, capsys):
    # a small cap stands in for GL8, whose 8! elements exceed the default cap
    def capped(name):
        return GroupPreset("GL(3)", symmetric_group(3))

    monkeypatch.setattr(equivariant, "MAX_WEYL_ELEMENTS", 4)
    monkeypatch.setattr(cli, "preset", capped)
    assert main(["flag", "--group", "GL3", "--pairs", "1"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == "cobcalc/error/v1"
    assert "cap of 4 elements" in body["error"]["message"]


def test_oversized_weyl_group_is_refused_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the job started work before refusing")

    # GL8 has 8! = 40320 elements, over the default cap of 20000
    monkeypatch.setattr(WeylGroupSpec, "elements", no_work)
    monkeypatch.setattr(cli, "_law", no_work)
    assert main(["flag", "--group", "GL8", "--pairs", "1"]) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == "cobcalc/error/v1"
    assert "40320 elements" in body["error"]["message"]


def test_oversized_symmetric_group_is_refused_quickly(capsys):
    # the 99 transposition generators of GL100 are recognised as signed
    # permutations, so none of them gets a 100x100 determinant
    start = time.perf_counter()
    assert main(["flag", "--group", "GL100", "--pairs", "1"]) == 2
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out) == {
        "schema": "cobcalc/error/v1",
        "error": {
            "kind": "refused",
            "message": f"the Weyl group of GL(100) has {math.factorial(100)} elements, "
                       "over the cap of 20000 elements"
        },
    }
    assert elapsed < 0.5


@pytest.mark.parametrize("group, rank", [
    ("GL99999999", 99999999), ("torus101", 101), ("B101", 101),
    # past Python's digit limit for int(), the rank is named by its length
    ("GL" + "1" * 5000, "of 5000 digits"),
    # leading zeros, of any script, are not digits of the rank
    ("GL" + "0" * 5000 + "101", 101),
    ("B" + "\u0660" * 5000 + "1" * 5000, "of 5000 digits"),
], ids=["GL99999999", "torus101", "B101", "GL-5000-digits", "GL-zero-padded-101",
        "B-zero-padded-5000-digits"])
def test_oversized_group_rank_is_refused_before_any_generator(group, rank, capsys):
    # GL(n) would build n - 1 dense n x n generators and n! first: at this
    # rank that exhausts memory, so the rank is checked as soon as it is parsed
    start = time.perf_counter()
    assert main(["bg", "--group", group, "--torder", "2", "--deg", "0..1"]) == 2
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "invalid",
        "message": f"group rank {rank} is over the preset cap of {equivariant.MAX_PRESET_RANK}",
    }
    assert err == ""
    assert elapsed < 1


def _no_law(*args, **kwargs):
    raise AssertionError("the law was built before the refusal")


def test_pbf_checks_the_rank_before_building_the_law(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_fgl", _no_law)
    for rank in ("0", "5"):
        assert main(["pbf", "--rank", rank]) == 2
        body = json.loads(capsys.readouterr().out)
        assert body["error"]["message"] == f"--rank must be in 1..4, got {rank}"
    # pbf reads only the coefficient ring, so it builds no law at all
    assert main(["pbf", "--rank", "2", "--samples", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["division_oracle_ok"]


@pytest.mark.parametrize("base_vars", ["30", "9", "0"])
def test_sif_refuses_base_vars_it_cannot_sample(base_vars, monkeypatch, capsys):
    # the sampler redraws until the t-exponents fit the cap, which at 30 variables
    # would run for hours: the job must be refused up front
    monkeypatch.setattr(cli, "build_fgl", _no_law)
    assert main(["sif", "--base-vars", base_vars, "--samples", "1"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "config", "message": f"--base-vars must be in 1..8, got {base_vars}"}
    assert err == ""


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_sif_refuses_a_rank_below_one_before_building_the_law(rank, monkeypatch, capsys):
    # without roots there is no bundle: refused as a config error up front,
    # not as an invalid split bundle after the law is built
    monkeypatch.setattr(cli, "build_fgl", _no_law)
    assert main(["sif", "--rank", rank, "--samples", "1"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "config", "message": f"--rank must be at least 1, got {rank}"}
    assert "Traceback" not in err


@pytest.mark.parametrize("rank", ["7", "100"])
def test_sif_refuses_a_rank_above_its_t_order_cap_before_building_the_law(
        rank, monkeypatch, capsys):
    # every Chern root has t-order >= 1, so c_rank and both sides of every
    # trial vanish in the window: no trial could test anything
    monkeypatch.setattr(cli, "build_fgl", _no_law)
    start = time.perf_counter()
    assert main(["sif", "--fgl", "universal", "--rank", rank, "--torder", "6"]) == 2
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {
        "kind": "config",
        "message":
            f"--rank {rank} exceeds --torder 6: c_{rank} and every trial vanish in the window",
    }
    assert err == ""
    assert elapsed < 0.2


def test_sif_accepts_a_rank_equal_to_its_t_order_cap(capsys):
    assert main("sif --fgl universal --rank 6 --torder 6 --samples 2".split()) == 0
    body = json.loads(capsys.readouterr().out)
    assert (body["rank"], body["caps"]["max_t"], body["failures"]) == (6, 6, 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["bg", "--group", "GL2", "--torder", "3", "--deg", "{}"],
        ["tower", "bgm", "--deg", "{}"],
    ],
    ids=["bg", "tower-bgm"],
)
@pytest.mark.parametrize("degrees", ["-1..2", "-2", "-3..-1"])
def test_negative_degrees_parse_with_or_without_equals(argv, degrees, capsys):
    spaced = [a.format(degrees) for a in argv]
    joined = spaced[:-2] + [f"--deg={degrees}"]
    outputs = []
    for args in (spaced, joined):
        status = main(args)
        outputs.append((status, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (0 if argv[0] == "bg" else 2)


# stdout sha256 of the README commands, recorded before the packed series
# kernel replaced the Monomial/Fraction one; every byte must stay the same
README_GOLDEN = {
    "fgl check --kind universal --max-t 8 --max-w 7":
        "b7239b01551eba3cd82fdd722dcf488affa12e18b9faba1f8c9e43308a1273ac",
    "bg --group GL2 --fgl additive --deg 0..3 --torder 3":
        "e46522f9ec35af3eca7e00bd1023aea88494aa956590bd7abddb77db2abb84a7",
    "bg --group GL3 --fgl universal --deg 0..4 --torder 4 --max-t 4 --max-w 3 --emit-basis":
        "8148d8236721e58bee4eaa4f343b44c315c4c9714fb072ca1a80c75a5d47cf92",
    "flag --group GL2 --fgl universal --pairs 25 --seed 7":
        "d05fd4725dfa0a07990169769abe6ea90e5d28c9dfef559d829ee5aea037e4b3",
    "sif --fgl universal --rank 2 --torder 6":
        "5e149a319dde534cee9ea276650e2bfafc203b9dd6554e9a5cb51a63d37a3bca",
    "pbf --rank 4 --fgl multiplicative":
        "b436b80674b0b1b0b7f5a3219ac37f1f492799fd55e27775ca2ce4f8c16d0bed",
    "tower bgm --fgl universal --deg 0..5 --levels 8":
        "5d56284ec48c05091cd2c1b62a56bc603d0b4bcf9b9f6e7d1088d8e958aa8c44",
}


@pytest.mark.parametrize("command", sorted(README_GOLDEN))
def test_readme_command_stdout_golden(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_GOLDEN[command]


# exit status and stdout sha256 of `tower bgm` at the (24, 23) frontier, on
# windows too short to certify (exit 1), and on the other two laws, recorded
# while every tower limit was still read off an elimination of its images
TOWER_GOLDEN = {
    "tower bgm --fgl universal --deg 0..20 --levels 26 --max-t 24 --max-w 23":
        (0, "f0ee2187dccb8d4b00c1c216066e0c9364b08f209b67254a32695fc8696a2845"),
    "tower bgm --fgl universal --deg 0..6 --levels 2":
        (1, "3e7f7fca38d07bc825f4e16ba752cb8c89e02e710d7b9cc7ac96906f8130d913"),
    "tower bgm --fgl universal --deg 0..6 --levels 4":
        (1, "f2efba886033adb8f82c467718386479b20569eddc0575dabb0b4b752dba7da5"),
    "tower bgm --fgl multiplicative --deg 0..7 --levels 10 --max-t 8 --max-w 7":
        (0, "1725f725720ac3da2189abc415a78d7773a95c84ea6f679a5912977106b4b4e4"),
    "tower bgm --fgl additive --deg 0..6 --levels 9":
        (0, "3e92b25734186680ab395e883a745b0fb732f175d2228b45254a9a0881672d8c"),
    # 601 weights to count: the partition table is filled once
    "tower bgm --fgl universal --deg 600..600 --max-t 600 --max-w 600 --levels 800":
        (0, "ace3f432c9b54a19a585986d000aca2365bd7f81f4c45cd95e494e78d4bf52fb"),
}


@pytest.mark.parametrize("command", sorted(TOWER_GOLDEN))
def test_tower_stdout_golden(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == TOWER_GOLDEN[command]


# exit status and stdout sha256 of `sif`, recorded while every Thom class was
# formed as a product: the three CLI seeds of the benchmark's sif-rank3, whose
# law is exact in the window (closed form), and a weight cap above the t-order
# cap, whose law is cut inside the window (product route).  At rank 3 every
# product-route trial checks 0 = 0; at rank 2 some have a nonzero side, so a
# product route that returned zero would move that digest
SIF_GOLDEN = {
    "sif --fgl universal --rank 3 --torder 7 --seed 7":
        (0, "746cb238f0a1f75e6b5cdd6bfc7f514ef4486188136722f0d011bac8a779851d"),
    "sif --fgl universal --rank 3 --torder 7 --seed 6":
        (0, "bb962a173b600d87a9bf9cd4a37392ba166d226eb857398d9631e616386ca2e5"),
    "sif --fgl universal --rank 3 --torder 7 --seed 45":
        (0, "719b268976d74a1c270e79ed4e6704ba6ca196176efa5346276423f43fdafb67"),
    "sif --fgl universal --rank 3 --torder 5 --max-w 6 --seed 7":
        (0, "e2496534a167023f99d78152ea7334716cd41404b28346583b8a11215c633f49"),
    "sif --fgl universal --rank 2 --torder 5 --max-w 6 --seed 7":
        (0, "cddeade4c0ecd18e959e92d478d0da206cdc7b9beae1ba9fc07b6e44663c0257"),
}


@pytest.mark.parametrize("command", sorted(SIF_GOLDEN))
def test_sif_stdout_golden(command, capsys):
    bundles._difference_slices.cache_clear()
    status = main(command.split())
    out = capsys.readouterr().out
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == SIF_GOLDEN[command]
    product_route = "--max-w 6" in command
    assert (bundles._difference_slices.cache_info().misses == 1) == product_route


def test_tower_bgm_counts_without_elimination(monkeypatch, capsys):
    # every map of the projective tower is onto, so no image is eliminated and
    # no map column is built
    def refuse(*args):
        raise AssertionError("the projective tower needs no elimination")

    monkeypatch.setattr(linalg, "echelon", refuse)
    monkeypatch.setattr(TowerSlice, "map", refuse)
    command = "tower bgm --fgl universal --deg 0..5 --levels 8"
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == README_GOLDEN[command]


def test_tower_bgm_builds_only_the_requested_slices(monkeypatch, capsys):
    built = []
    real = cli.projective_space_tower

    def spy(ctx, d, levels):
        built.append(d)
        return real(ctx, d, levels)

    monkeypatch.setattr(cli, "projective_space_tower", spy)
    assert main("tower bgm --fgl universal --deg 4..6 --levels 8".split()) == 0
    capsys.readouterr()
    assert main("tower bgm --deg 99..99 --max-t 99 --levels 9999".split()) == 0
    assert built == [4, 5, 6, 99]
    report = json.loads(capsys.readouterr().out)
    assert report["degrees"] == {"99": {"lim_dim": 1, "stab_index": 0}}


def test_tower_work_cap_counts_only_the_asked_degrees(capsys):
    # one asked degree of 4001 levels is 4001 level dims, though
    # (max degree + 1) x (levels + 1) would be 12007001, over MAX_TOWER_DIMS
    argv = "tower bgm --fgl universal --deg 3000..3000 --max-t 3000 --max-w 3000 --levels 4000"
    assert main(argv.split()) == 0
    limit = len(window_basis(RingContext(1, "universal-rational", 3000, 3000), 3000, 3000))
    report = json.loads(capsys.readouterr().out)
    assert report["degrees"] == {"3000": {"lim_dim": limit, "stab_index": 0}}


# stdout sha256 of `bg --emit-basis` on a rank-4, a signed (B3) and a rank-1
# group, recorded while the orbit sums were still read against every monomial
# of the window rather than only the monomials that occur in them
EMIT_BASIS_GOLDEN = {
    "bg --group GL4 --fgl universal --deg 0..8 --torder 8 --max-t 8 --max-w 7 --emit-basis":
        "9a868130754cbbb3e569d3e242fb7d96ecccc49c473b63a79531804d4fabf7d4",
    "bg --group B3 --fgl multiplicative --deg -2..5 --torder 5 --max-t 6 --max-w 5 --emit-basis":
        "c2e34178cc9d112a07940cedc76d72b42cd14d333638eeae7ff216a6a8dcfa3a",
    "bg --group SL2 --fgl universal --deg -1..3 --torder 5 --emit-basis":
        "69f28046f9bb7de2f1cbc7da45f24ee823a9a904efe7145c01818a643828ecc5",
}


@pytest.mark.parametrize("command", sorted(EMIT_BASIS_GOLDEN))
def test_bg_emit_basis_stdout_golden(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_BASIS_GOLDEN[command]


# stdout sha256 of `fgl check` at edge caps (no generator admitted, degree 2
# only, weight cap far above the t-order cap) and at (12, 11), recorded before
# every law was built from its logarithm
EDGE_CAP_GOLDEN = {
    "fgl check --kind mult --max-t 4 --max-w 0":
        "5bba52396f1fc71889dbf7ef239e762378d010d1a40e5d808b0db887dc683305",
    "fgl check --kind universal --max-t 2 --max-w 0":
        "8afde62bd7a5522c97ef3ab1ee629618362f31de964282f2532d4dc37c02c667",
    "fgl check --kind add --max-t 3 --max-w 5":
        "93cfe43ba10cc2589932573f0946757418164ef6badcb66f4b1c9a376e19b7da",
    "fgl check --kind universal --max-t 6 --max-w 20":
        "233d926fb95749c8b31a629dc6c76168300e2c699b7b2cb20ac7184cc89bc5e7",
    "fgl check --kind add --max-t 12 --max-w 11":
        "f1fb9600490d439948d3e8046178367d9901c9e3b41e4eccd8447ea4656ec3a2",
    "fgl check --kind mult --max-t 12 --max-w 11":
        "bfa58b11dfedbc1358ec203dc2338c521ca5360bbdcc568e3212db2c5c27d323",
    "fgl check --kind universal --max-t 12 --max-w 11":
        "1ded95bd6943527084e9714156139f623ddeb54d1975c86472e260dee0d7d9f6",
}


@pytest.mark.parametrize("command", sorted(EDGE_CAP_GOLDEN))
def test_fgl_check_edge_caps_stdout_golden(command, capsys):
    status = main(command.split())
    out = capsys.readouterr().out
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_CAP_GOLDEN[command]


def _wrong_exp(monkeypatch):
    # a wrong exp makes exp(-log x) no inverse for exp(log x + log y)
    real = fgl.compositional_inverse
    monkeypatch.setattr(fgl, "compositional_inverse", lambda f: real(f) + f.ctx.var(0) ** 2)


def _sum_over_two_contexts(monkeypatch):
    def law(config):
        a, b = (RingContext(2, "rational", max_t, 0).var(0) for max_t in (4, 5))
        return fgl_sum(fgl.build_fgl("additive", 5, 0), a, b)

    monkeypatch.setattr(cli, "_law", law)


def _no_tower_built(monkeypatch):
    def build(*args):
        raise AssertionError("the tower was built before the refusal")

    monkeypatch.setattr(cli, "projective_space_tower", build)


def _sum_with_constant_term(monkeypatch):
    def law(config):
        ctx = RingContext(2, "rational", 4, 0)
        return fgl_sum(fgl.build_fgl("additive", 4, 0), ctx.one(), ctx.var(0))

    monkeypatch.setattr(cli, "_law", law)


# one real path to each kind; no CLI input reaches the last three, so they are
# driven by patching the library (construction) or the law the job builds
@pytest.mark.parametrize(
    "argv, kind, patch",
    [
        (["bg", "--group", "GL2", "--deg", "0..9", "--torder", "3"], "config", None),
        (["bg", "--group", "GL2", "--deg", "1..x", "--torder", "3"], "config", None),
        (["tower", "bgm", "--fgl", "universal", "--deg", "0..2", "--levels", "1000000000"],
         "config", _no_tower_built),
        (["tower", "bgm", "--fgl", "universal", "--deg", "0..99999", "--max-t", "99999",
          "--levels", "10000"], "config", _no_tower_built),
        (["sif", "--torder", "-1"], "config", None),
        (["bg", "--torder", "-1"], "config", None),
        (["fgl", "check", "--kind", "elliptic"], "invalid", None),
        (["fgl", "check", "--kind", "add", "--max-t", "1"], "invalid", None),
        (["bg", "--group", "GL0", "--torder", "2", "--deg", "0..1"], "invalid", None),
        (["bg", "--group", "B0", "--torder", "2", "--deg", "0..1"], "invalid", None),
        (["bg", "--group", "GL99999999", "--torder", "2", "--deg", "0..1"], "invalid", None),
        (["flag", "--group", "GL8", "--pairs", "1"], "refused", None),
        (["fgl", "check", "--kind", "add"], "construction", _wrong_exp),
        (["fgl", "check", "--kind", "add"], "context", _sum_over_two_contexts),
        (["fgl", "check", "--kind", "add"], "substitution", _sum_with_constant_term),
    ],
    ids=["config", "config-deg", "config-levels-over-cap", "config-tower-dims-over-cap",
         "config-sif-negative-torder", "config-bg-negative-torder", "invalid-kind", "invalid-caps",
         "invalid-rank-0", "invalid-signed-rank-0", "invalid-rank-over-cap", "refused",
         "construction", "context", "substitution"],
)
def test_error_kinds_exit_2_without_traceback(argv, kind, patch, monkeypatch, capsys):
    if patch is not None:
        patch(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert body["schema"] == "cobcalc/error/v1"
    assert body["error"]["kind"] == kind and body["error"]["message"]
    assert captured.err == ""


# no --deg: the message names the default range that the degree came from
@pytest.mark.parametrize("argv, message", [
    (["bg", "--torder", "1"],
     "degree 3 of --deg 0..3 exceeds --torder 1; monomials of that degree need a larger window"),
    (["tower", "bgm", "--max-t", "4"], "degree 5 of --deg 0..5 exceeds --max-t 4"),
    # --torder is checked like --max-t, before the job reads it
    (["bg", "--torder", "-1"], "--torder must be at least 0, got -1"),
    (["sif", "--torder", "-1"], "--torder must be at least 0, got -1"),
    (["fgl", "check", "--kind", "add", "--max-w", "-2"], "--max-w must be at least 0, got -2"),
    (["tower", "bgm", "--levels", "1"], "--levels must be in 2..10000, got 1"),
    (["tower", "bgm", "--deg", "0..999", "--max-t", "999", "--levels", "10000"],
     "the job would build 10001000 level dims, (asked degrees) x (levels + 1), "
     "over the cap of 10000000"),
])
def test_config_refusals_name_what_they_read(argv, message, capsys):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "config", "message": message}


def test_error_object_from_a_fresh_interpreter_has_no_traceback():
    proc = run_cli("flag", "--group", "GL8", "--pairs", "1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["kind"] == "refused"
    assert "Traceback" not in proc.stderr


def test_a_job_out_of_memory_exits_2_with_a_resources_error():
    # a packed key of one field per generator up to weight 2 * 10**7 fills far
    # more than the child may map; the limit binds the child only
    argv = ["fgl", "check", "--kind", "universal", "--max-t", "3", "--max-w", "20000000"]
    limit = 200 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))

    proc = subprocess.run([sys.executable, "-m", "cobcalc.cli", *argv], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == {
        "kind": "resources", "message": "the job ran out of memory"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, status",
    [
        (["bg", "--group", "GL2", "--fgl", "additive", "--deg", "0..3", "--torder", "3"], 0),
        (["fgl", "check", "--kind", "elliptic"], 2),
    ],
)
def test_reader_closing_stdout_early_leaves_stderr_empty(argv, status):
    # the read end is closed long before the job writes, so the report (or the
    # error object) meets a broken pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "cobcalc.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == status
    assert err == b""


def test_tower_refusal_exits_1_with_the_refusal_in_the_report(capsys):
    # two levels are too short to certify that degrees 0 and 1 stabilized: the job
    # ran, and the refusal is a failed check (exit 1), not an invalid config (exit 2)
    assert main(["tower", "bgm", "--fgl", "universal", "--deg", "0..2", "--levels", "2"]) == 1
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == "cobcalc/tower-bgm/v1"
    refused = {d for d, e in body["degrees"].items() if "refused" in e}
    assert refused == {"0", "1"}
    assert all(body["degrees"][d]["lim_dim"] is None for d in refused)
    assert body["degrees"]["2"]["lim_dim"] == 0


def test_fgl_check_verifies_axioms_once(monkeypatch):
    calls = []
    original = fgl.verify_fgl_axioms

    def counting(F):
        calls.append(F.ctx.coeff_kind)
        return original(F)

    # every module binding of the name, so a second call from the CLI is seen
    monkeypatch.setattr(fgl, "verify_fgl_axioms", counting)
    monkeypatch.setattr(cli, "verify_fgl_axioms", counting, raising=False)
    status, report = run(job("fgl check --kind universal"))
    assert status == 0
    assert json.loads(report)["assoc"] is True
    assert calls == ["universal-rational"]


def test_sif_leaves_config_unchanged():
    config = job("sif --fgl multiplicative --rank 1 --samples 2 --torder 4")
    before = copy.deepcopy(config)
    status, report = run(config)
    assert status == 0
    assert config == before
    assert json.loads(report)["caps"]["max_t"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["sif", "--samples", "0"],
        ["pbf", "--samples", "0"],
        ["flag", "--pairs", "-1"],
    ],
    ids=["sif", "pbf", "flag"],
)
def test_sample_count_below_one_is_rejected(argv, capsys):
    assert main(argv) == 2
    body = json.loads(capsys.readouterr().out)
    assert body["schema"] == "cobcalc/error/v1"
    assert ("--pairs" if argv[0] == "flag" else "--samples") in body["error"]["message"]


def _parser_progs(monkeypatch):
    """Patch every ArgumentParser init to record its prog; returns the record."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return progs


# the argv of the benchmark's workloads, each CLI seed of sif-rank3 included
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
_perfbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_perfbench)
PERFBENCH_JOBS = sorted({
    (tuple(argv), digest)
    for name in _perfbench.WORKLOADS for seed in range(3)
    for argv, digest in [_perfbench.workload_job(name, seed)]
})
PERFBENCH_ARGV = [argv for argv, _ in PERFBENCH_JOBS]


@pytest.mark.parametrize("argv, digest", PERFBENCH_JOBS, ids=[" ".join(a) for a, _ in PERFBENCH_JOBS])
def test_benchmark_job_stdout_matches_its_gate(argv, digest, capsys):
    # the digest the benchmark's correctness gate holds each job's stdout to
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


FULL_TREE = [
    "cobcalc", "cobcalc fgl", "cobcalc fgl check", "cobcalc bg", "cobcalc flag", "cobcalc sif",
    "cobcalc pbf", "cobcalc tower", "cobcalc tower bgm", "cobcalc selftest",
]


# a well-formed argv is read off the option table and builds no parser; one
# the reader declines (an abbreviation, help, a refusal) builds the full tree
@pytest.mark.parametrize(
    "argv, status, progs",
    [
        (["fgl", "check", "--kind", "additive"], 0, []),
        (["bg", "--torder", "2"], 0, []),
        (["flag"], 0, []),
        (["sif"], 0, []),
        (["pbf"], 0, []),
        (["tower", "bgm"], 0, []),
        (["selftest"], 0, []),
        (["bg", "--tor", "2"], 0, FULL_TREE),
        (["bg", "-h"], None, FULL_TREE),
        (["tower", "bgm", "--levels", "x"], 2, FULL_TREE),
    ],
    ids=["fgl", "bg", "flag", "sif", "pbf", "tower", "selftest", "bg-abbreviation", "bg-help",
         "tower-refusal"],
)
def test_main_builds_a_parser_only_for_a_declined_argv(argv, status, progs, monkeypatch, capsys):
    built = _parser_progs(monkeypatch)
    monkeypatch.setattr(cli, "run", lambda config: (0, ""))  # parse only
    try:
        got = main(argv)
    except SystemExit as exc:  # help exits from inside argparse
        assert exc.code == 0
        got = None
    assert got == status
    assert built == progs


@pytest.mark.parametrize("argv", PERFBENCH_ARGV, ids=" ".join)
def test_a_benchmark_job_never_imports_locale(argv):
    # argparse's first translated message imports locale through gettext; a
    # job read off the option table builds no parser, so it never does
    code = ("import contextlib, io, sys; from cobcalc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({list(argv)!r})\n"
            "print(status, 'locale' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")


def test_full_tree_builds_every_subcommand(monkeypatch):
    built = _parser_progs(monkeypatch)
    parser = cli.build_parser()
    assert built == FULL_TREE
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli.SUBCOMMANDS)


def _status_and_output(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:  # help exits from inside argparse
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# exit status and stdout sha256 of argv whose parse fails, asks for help or
# names no subcommand, plus a few jobs argparse reads, at COLUMNS=80 (argparse
# wraps help to the terminal width); recorded while argparse built only the
# named subcommand's subtree.  Every one wrote nothing to stderr.
EDGE_GOLDEN = {
    "-h":
        (0, "295ca5ad6f926f5c87ef43279ef81755555fb175f09de9df8f5a6280e332650f"),
    "":
        (2, "e90be5be0fa1fb85fce0a99b3cf82b8ecd2bed85a36809316f0a6cc4d1f59578"),
    "bogus":
        (2, "12957bfed39e2ec36d51d6f4f539aae10126f178f71ed47c25dac2c5edce014a"),
    "bg":
        (2, "2fadea50bfc55fd1870c38cb3faf7122ce2dcf9011ed1c341303d9d82113f864"),
    "bg -h":
        (0, "e6c8e6c146dd1d956c6b6da1c6d5707c362ca642db6650d6f6b7de1df971406b"),
    "fgl":
        (2, "a2a708477ac408881ab43211ecfca63c588238afc83bae20f19e19ee74dbb2da"),
    "fgl -h":
        (0, "ea932d37a08ff3deb76d3d7b2bc31b0798179859250c153ff44c82b3577961d0"),
    "fgl bogus":
        (2, "037a0b49f7c729551840dba158d54d149eb5bca5e648e8e3ffa28916a832e28c"),
    "fgl check":
        (2, "c44eead406e1189ea61989debdc93951e2ba0d553a578aff03c9bc49e104a5c6"),
    "fgl check -h":
        (0, "5682397c3fc91d799680243e4325cba0b1046b55b03fd1fa1e008e9a134d0d9e"),
    "tower":
        (2, "8631af39fa22009a27d407ad96432c8b3048c552d2ab4522d5b3387583ff9243"),
    "tower bgm -h":
        (0, "d276da9fe29f13a1d74cf1b7e53e0479f453b9d318ca36ac5a541f5d1c52e06d"),
    "tower bgm --tor 4":
        (2, "737aed53df5b2cb5bfc4eab6044586121e42c6969a9408dd5ee45749c174498f"),
    "--levels x":
        (2, "505554bdf508a07f7952f79df408cabb88f7786b5b38346505b741a52f125e4b"),
    "--tor 4":
        (2, "1ab20f692cd9f3c84fcfb37e6ae50676d9dfa4e7f7baf576771055a2e513c580"),
    "-- bg":
        (2, "2fadea50bfc55fd1870c38cb3faf7122ce2dcf9011ed1c341303d9d82113f864"),
    "--":
        (2, "e90be5be0fa1fb85fce0a99b3cf82b8ecd2bed85a36809316f0a6cc4d1f59578"),
    "-- -x":
        (2, "d125b214a79ca3fe2734d3ccbc2432baf82803450019cd7836967d984ef28ebe"),
    "-- bg --torder 1":
        (2, "ce65dd7fe3474be474600736fca080e6265943a125cb32e3af4419b99e212881"),
    "bg --torder 2 --max 3":
        (2, "65ba13e361c7b0a452be22a16209e8023188eb58969beb45642856a0c5f746e7"),
    "bg --tor 2 --deg 0..1":
        (0, "d01bd810bfda3a4cd1a4bcb621089bad4dc23a0092a0c2ac2b1ab03e2aec84be"),
    "bg --torder 2 --deg -1..2":
        (0, "fbfff5aadc98397b784784a09bf7165d2c8f90f2e7f36a8b31caf2e671ce0808"),
    "bg --torder 2 --deg 0..1 --bogus":
        (2, "651eabe8b1800a9e714ab30585beefd3d43d27019e8c0a83e381f8f865a02eee"),
    "sif --rank=-1":
        (2, "8a51b47a7e16798c16cc7997dff90b9a1d2ffd7cd6146fdc0886052f5ae221df"),
    "pbf --format xml":
        (2, "d8305854ed07781013c22b37befb3fe493d99b2a64dd71f0d268850c867389df"),
    "flag --pairs x":
        (2, "83d5cdd756786b845513a0ba55a9d0e3b5311b5731915d68020659d98e937eb5"),
    "selftest extra":
        (2, "49818209add0ead6c1bd3963d50ff63e9ed3c815672644aebffc77e2d32d9d89"),
    # recorded when each option's range moved into its row of the option table
    # and `sif --torder` became sif's one t-order cap; the last two exited 0 before
    "sif -h":
        (0, "8ee47189ceaa01f8bcfe10380a653dbe569569be450f8e9e883b07ceca3f179b"),
    "pbf --rank 5":
        (2, "1bc6d3b4c0f565d73a0851119dff4f987df2a264966ded5f7d3f85cb7fe79de0"),
    "tower bgm --levels 1":
        (2, "359b0a6fd8ab9c2b72be015e799696cb0e26124e5804b475cd987a26e2f5c899"),
    "tower bgm --levels 10001":
        (2, "46147005d9a128e20020b8b0ee4d79547db34b5f173e11f56d60c2a296ea200a"),
    "sif --base-vars 9":
        (2, "5d98607ff20c79c52c7af22fae7f822c3075a1f914fad0d54b4a981098e2f18f"),
    "flag --pairs 0":
        (2, "edce72c96f397d56c4fd1e1497a5d43a6d53fcabd1eb83e7a3bb658f486ecaa4"),
    "bg --torder -1":
        (2, "acc1031bbad40b14277bbc84dbd97e9b3880a7826d000de25fccf881587ef726"),
    "sif --max-t 5":
        (2, "a5dc5be5274c01ef51e7499855dcd45b19b7ade244d40d6d3ea7ba7eb61529ef"),
    "sif --fgl universal --rank 7 --torder 6":
        (2, "e3e7bcd742ab74bf48b1368b1d5c1c10964fa7b8a051e966dbafaabe04333ce6"),
}


@pytest.mark.parametrize("argv", [["--levels", "x"], ["-x"], ["--tor", "4"]])
def test_an_option_before_the_subcommand_is_a_config_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {
        "kind": "config",
        "message": f"{argv[0]!r} comes before the subcommand; options follow the subcommand",
    }
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["bg", "--torder", "1"], [], ["-x"]], ids=["bg", "empty", "-x"])
def test_a_leading_double_dash_is_dropped(argv, capsys):
    # `--` ends the (empty) top-level options: the rest reads as if it came first
    assert _status_and_output(["--", *argv], capsys) == _status_and_output(argv, capsys)


@pytest.mark.parametrize("command", list(EDGE_GOLDEN), ids=lambda command: command or "empty")
def test_edge_argv_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    status, out, err = _status_and_output(command.split(), capsys)
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == EDGE_GOLDEN[command]
    assert err == ""


def test_help_from_a_fresh_interpreter_lists_every_subcommand():
    proc = run_cli("-h")
    assert proc.returncode == 0
    assert "{fgl,bg,flag,sif,pbf,tower,selftest}" in proc.stdout
