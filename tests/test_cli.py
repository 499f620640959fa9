import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regionchoice import catalog, solvers
from regionchoice.cli import main
from regionchoice.diagram import random_diagram, to_flat_pd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert out.split() == ["d0", "example2_4", "3_1", "4_1", "5_1", "5_2",
                           "6_1", "6_2", "6_3"]


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "--diagram", "d0", "--rule", "double")
    assert code == 0
    assert "2" in out and "v1" in out


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--diagram", "3_1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rule"] == "single"
    assert len(doc["entries"]) == 3


def test_matrix_reference_labels(capsys):
    code, out, _ = run(capsys, "matrix", "--diagram", "3_1",
                       "--reference-labels", "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [
        [1, 1, 1, 1, 0], [1, 1, 0, 1, 1], [1, 0, 1, 1, 1]]


def test_missing_source_is_input_error(capsys):
    code, _, err = run(capsys, "matrix")
    assert code == 2
    assert "exactly one" in err


def test_both_sources_is_input_error(capsys):
    code, _, _ = run(capsys, "matrix", "--diagram", "d0", "--file", "x.json")
    assert code == 2


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "regions", "--diagram", "8_19")
    assert code == 2
    assert "unknown" in err


def test_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(
        {"name": "trefoil",
         "crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]}))
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0
    assert "3 crossings" in out


def test_invalid_file_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"crossings": [[1, 2, 2, 3]]}))
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert "error" in err


def test_solve_and_verify(capsys):
    code, out, _ = run(capsys, "solve", "--diagram", "3_1", "--b", "1,0,0")
    assert code == 0
    assert "PASS" in out


def test_solve_minimized(capsys):
    code, out, _ = run(capsys, "solve", "--diagram", "3_1", "--b", "1,0,0",
                       "--minimize", "Linf", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"]
    assert max(abs(x) for x in doc["solution"]) <= 1


def test_internal_check_exits_4_without_traceback(capsys, monkeypatch):
    solve = solvers.solve

    def degenerate(diagram, rule, b):
        family = solve(diagram, rule, b)
        k1, _ = family.kernel
        return type(family)(family.matrix, family.b, family.particular,
                            (k1, k1))

    # minimize_in_family's own check must fail as an invariant violation
    monkeypatch.setattr(solvers, "solve", degenerate)
    code, out, err = run(capsys, "solve", "--diagram", "3_1", "--b", "1,0,0",
                         "--minimize", "Linf")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: minimize_in_family")
    assert "Traceback" not in err


def test_catalog_check_exits_4_without_traceback(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setitem(catalog.REFERENCE_SINGLE, "3_1",
                      ((1, 1, 1, 1, 1),) * 3)
        catalog.catalog_entry.cache_clear()
        code, out, err = run(capsys, "solve", "--diagram", "3_1",
                             "--b", "1,0,0")
    catalog.catalog_entry.cache_clear()
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: catalog entry 3_1")
    assert "Traceback" not in err


@pytest.mark.parametrize("layer, function, argv", [
    ("incidence", "build_matrix", ("matrix", "--diagram", "3_1")),
    ("solvers", "solve", ("solve", "--diagram", "3_1", "--b", "1,0,0")),
    ("zlinalg", "rref_rational", ("rref", "--diagram", "3_1")),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_out_of_memory_exits_2_without_traceback(capsys, monkeypatch, layer,
                                                 function, argv):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module(f"regionchoice.{layer}"),
                        function, exhausted)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: out of memory: the input is too large for this "
                   "command\n")


def test_solve_wrong_b_length(capsys):
    code, _, _ = run(capsys, "solve", "--diagram", "3_1", "--b", "1,2")
    assert code == 2


def test_solve_mod2(capsys):
    code, out, _ = run(capsys, "solve", "--diagram", "5_1",
                       "--b", "1,0,1,0,0", "--mod2")
    assert code == 0
    assert "PASS" in out


def test_solve_mod2_rejects_nonbits(capsys):
    code, _, _ = run(capsys, "solve", "--diagram", "5_1",
                     "--b", "2,0,0,0,0", "--mod2")
    assert code == 2


def test_solve_mod2_is_the_single_rule(capsys):
    code, out, _ = run(capsys, "solve", "--diagram", "example2_4",
                       "--b", "1,0,0,0", "--mod2", "--rule", "single")
    assert code == 0
    assert out.splitlines() == ["regions: r1 r3 r4",
                                "PASS residual mod 2 = [0, 0, 0, 0]"]


def test_solve_mod2_json_is_solve_mod2_at_large_n(capsys, tmp_path):
    D = random_diagram(5, 500)
    path = tmp_path / "big.json"
    path.write_text(to_flat_pd(D))
    n = D.crossing_count
    b = [i * i % 3 % 2 for i in range(n)]
    code, out, _ = run(capsys, "solve", "--file", str(path),
                       "--b=" + ",".join(map(str, b)), "--mod2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["regions"] == [f"r{r + 1}" for r in solvers.solve_mod2(D, b)]
    assert doc["residual_mod2"] == [0] * n
    assert doc["verified"] is True


@pytest.mark.parametrize("option, message", [
    (("--rule", "double"), "error: --mod2 supports the single rule only\n"),
    (("--minimize",), "error: --mod2 takes no --minimize\n"),
    (("--minimize", "L2"), "error: --mod2 takes no --minimize\n"),
], ids=["double-rule", "minimize", "minimize-L2"])
def test_solve_mod2_refuses_an_option_it_would_ignore(capsys, option,
                                                      message):
    code, out, err = run(capsys, "solve", "--diagram", "example2_4",
                         "--b", "1,0,0,0", "--mod2", *option)
    assert code == 2
    assert out == ""
    assert err == message


def test_add1_algebraic(capsys):
    code, out, _ = run(capsys, "add1", "--diagram", "4_1", "--crossing", "v2")
    assert code == 0
    assert "PASS" in out


def test_add1_geometric(capsys):
    code, out, _ = run(capsys, "add1", "--diagram", "example2_4",
                       "--crossing", "4", "--path", "geometric",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] == [0, 0, 0, 1]


def test_add1_geometric_single_refused(capsys):
    code, _, err = run(capsys, "add1", "--diagram", "3_1", "--crossing", "v1",
                       "--rule", "single", "--path", "geometric")
    assert code == 2
    assert "double" in err


def test_add1_bad_crossing(capsys):
    code, _, _ = run(capsys, "add1", "--diagram", "3_1", "--crossing", "v9")
    assert code == 2


def test_random_emits_parseable_document(capsys, tmp_path):
    code, out, _ = run(capsys, "random", "--seed", "5", "--moves", "4")
    assert code == 0
    path = tmp_path / "r.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0


def test_random_output_is_pinned(capsys):
    code, out, _ = run(capsys, "random", "--seed", "7", "--moves", "5")
    assert code == 0
    assert out == (
        '{"crossings": [[1, 2, 2, 3], [4, 5, 5, 6], [7, 8, 3, 9], '
        '[6, 10, 11, 4], [12, 13, 10, 9], [8, 13, 12, 14], [1, 14, 15, 15], '
        '[7, 16, 16, 11]], "name": "random-7-5"}\n')


def test_rref_text(capsys):
    code, out, _ = run(capsys, "rref", "--diagram", "3_1", "--reference-labels")
    assert code == 0
    assert "b1" in out


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "--diagram", "d0")
    assert code == 0
    assert "graph" in out


def test_checkerboard_output(capsys):
    code, out, _ = run(capsys, "checkerboard", "--diagram", "4_1")
    assert code == 0
    assert out.count("+") == 3 and out.count("-") == 3


@pytest.mark.parametrize("argv", [
    ("rref",),
    ("solve", "--b", "1,0", "--mod2"),
    ("add1", "--crossing", "v1", "--path", "geometric"),
])
def test_link_file_exits_2_without_traceback(capsys, tmp_path, argv):
    path = tmp_path / "link.json"
    path.write_text('{"crossings": [[1, 2, 3, 4], [1, 4, 3, 2]]}')
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "knot projection" in err and "Traceback" not in err


@pytest.mark.parametrize("document", [
    '{"crossings": [[true, 2, 2, 1]]}',
    '{"crossings": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["bool-label", "deep-nesting"])
def test_malformed_document_exits_2(capsys, tmp_path, document):
    path = tmp_path / "d.json"
    path.write_text(document)
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("solve", "--diagram", "3_1", "--b", "1,0,0", "--reference-labels"),
    ("validate", "--diagram", "3_1", "--reference-labels"),
    ("dot", "--diagram", "3_1", "--format", "json"),
])
def test_option_not_read_by_subcommand_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["matrix", "rref"])
def test_reference_labels_need_a_catalog_diagram(capsys, tmp_path, command):
    path = tmp_path / "d.json"
    path.write_text('{"crossings": [[1, 2, 2, 1]]}')
    code, _, err = run(capsys, command, "--file", str(path),
                       "--reference-labels")
    assert code == 2
    assert "--diagram" in err


def test_regions_text(capsys):
    code, out, _ = run(capsys, "regions", "--diagram", "3_1")
    assert code == 0
    assert out.splitlines() == ["5 regions", "r1: v1.0 v2.2",
                                "r2: v1.1 v2.1 v3.1", "r3: v1.2 v3.0",
                                "r4: v1.3 v3.3 v2.3", "r5: v2.0 v3.2"]


def test_regions_json(capsys):
    code, out, _ = run(capsys, "regions", "--diagram", "d0",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["regions"] == [{"index": 0, "corners": [[0, 0], [0, 2]]},
                              {"index": 1, "corners": [[0, 1]]},
                              {"index": 2, "corners": [[0, 3]]}]
    assert doc["text_lines"][0] == "3 regions"


@pytest.mark.parametrize("argv, message", [
    (("solve", "--diagram", "3_1", "--b", "1,x,0"),
     "error: cannot parse point vector '1,x,0'\n"),
    (("add1", "--diagram", "3_1", "--crossing", "vx"),
     "error: cannot parse crossing 'vx'\n"),
], ids=["point-vector", "crossing"])
def test_unparseable_argument_exits_2_without_traceback(capsys, argv,
                                                        message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


def test_unreadable_file_exits_2_without_traceback(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("catalog",),
    ("solve", "--diagram", "3_1", "--b", "1,0,0"),
    ("dot", "--diagram", "3_1"),
    ("random", "--seed", "5", "--moves", "40"),
    ("matrix", "--diagram", "6_3", "--format", "json"),
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_0_quietly(argv, unbuffered):
    # a pipe whose read end is closed before the child writes to it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "regionchoice.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the open fds in /proc/self/fd")
def test_closed_stdout_leaves_no_fd_open(monkeypatch):
    # in process, stdout on a pipe whose read end is closed, never fd 1
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["catalog"]) == 0
    monkeypatch.undo()
    assert open_fds() == before


BASE = {"regionchoice", "regionchoice.cli", "regionchoice.diagram"}
# the catalog checks its reference labelings on build_matrix when it loads
CATALOG = {"regionchoice.catalog", "regionchoice.incidence"}
SOLVERS = {"regionchoice.incidence", "regionchoice.solvers",
           "regionchoice.zlinalg"}
LOADED = {
    ("validate",): set(),
    ("regions",): set(),
    ("checkerboard",): set(),
    ("dot",): set(),
    ("matrix",): {"regionchoice.incidence"},
    ("rref",): {"regionchoice.incidence", "regionchoice.zlinalg"},
    ("solve", "--b", "1,0,0"): SOLVERS,
    ("solve", "--b", "1,0,1", "--mod2"): SOLVERS,
    ("add1", "--crossing", "v1"): SOLVERS,
}
CHILD = """
import contextlib, io, json, sys
from regionchoice.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "regionchoice")]))
"""


def loaded_by(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", CHILD, *argv],
                           capture_output=True, text=True, env=env,
                           timeout=120, check=True)
    code, modules = json.loads(child.stdout)
    assert code == 0, child.stderr
    return set(modules)


@pytest.mark.parametrize("source", ["file", "diagram"])
@pytest.mark.parametrize("command", list(LOADED), ids=" ".join)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, source, command):
    if source == "file":
        path = tmp_path / "d.json"
        path.write_text(to_flat_pd(catalog.catalog_entry("3_1").diagram))
        args, extra = ["--file", str(path)], set()
    else:
        args, extra = ["--diagram", "3_1"], CATALOG
    loaded = loaded_by([command[0], *args, *command[1:]])
    assert loaded == BASE | LOADED[command] | extra


# commands that read no diagram, and the reference labeling
LOADED_WITHOUT_A_SOURCE = {
    ("random", "--seed", "5", "--moves", "40"): set(),
    # listing the names builds no matrix
    ("catalog",): {"regionchoice.catalog"},
    ("matrix", "--diagram", "3_1", "--reference-labels"): CATALOG,
    ("rref", "--diagram", "3_1", "--reference-labels"):
        CATALOG | {"regionchoice.zlinalg"},
}


@pytest.mark.parametrize("argv", list(LOADED_WITHOUT_A_SOURCE), ids=" ".join)
def test_a_command_without_a_source_or_with_labels_loads_its_layers(argv):
    assert loaded_by(argv) == BASE | LOADED_WITHOUT_A_SOURCE[argv]
