"""Command-line behaviour: outputs, exit codes and error mapping."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from finitary import io as fio, manifolds, verify_correspondence
from finitary.cli import main

from conftest import random_antisymmetric_relation, table_space


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnvelope:
    def test_differential(self, capsys):
        code, out, _ = run(capsys, "envelope", "d", "e[1]", "--vertices", "1,2")
        assert code == 0
        assert out.strip() == "-e[1,2] + e[2,1]"

    def test_product(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "mul", "e[1,2]", "e[2,3]", "--vertices", "1,2,3"
        )
        assert code == 0 and out.strip() == "e[1,2,3]"

    def test_inner(self, capsys):
        code, out, _ = run(
            capsys, "envelope", "inner", "e[1,2]+e[2,3]", "e[2,3]", "--vertices", "1,2,3"
        )
        assert code == 0 and out.strip() == "1"

    def test_values_past_the_digit_limit_print_in_full(self, capsys):
        # each literal has 3001 digits, under the limit on parsing; the
        # result's denominator (10^3000 + 1)^2 has 6001, past the 4300 that
        # str(int) prints
        form = f"1/{10**3000 + 1}*e[1,2]"
        square = "1" + "0" * 2999 + "2" + "0" * 2999 + "1"
        code, out, _ = run(capsys, "envelope", "inner", form, form, "--vertices", "1,2")
        assert (code, out) == (0, f"1/{square}\n")
        code, out, _ = run(
            capsys, "envelope", "mul", form, form.replace("1,2", "2,1"), "--vertices", "1,2"
        )
        assert (code, out) == (0, f"1/{square}*e[1,2,1]\n")

    def test_bad_form_is_input_error(self, capsys):
        code, _, err = run(capsys, "envelope", "d", "e[1,1]", "--vertices", "1,2")
        assert code == 2 and "error[ParseError]" in err

    def test_exponent_coefficient_is_refused_at_once(self, capsys):
        code, out, err = run(
            capsys, "envelope", "d", "1e1000000000*e[1]", "--vertices", "1,2"
        )
        assert (code, out) == (2, "")
        assert "bad coefficient '1e1000000000'" in err

    @pytest.mark.parametrize("coeff", ["１", "1_0"])
    def test_non_ascii_and_separated_digits_are_refused(self, capsys, coeff):
        code, out, err = run(capsys, "envelope", "d", f"{coeff}*e[1]", "--vertices", "1,2")
        assert (code, out) == (2, "")
        assert f"bad coefficient '{coeff}'" in err


class TestIdeal:
    def test_check_reports_dropped(self, capsys, data_dir):
        code, out, _ = run(capsys, "ideal", "check", str(data_dir / "example.ideal"))
        assert code == 0
        assert "generators (antichain): e[1,2], e[2,1]" in out
        assert "dropped (redundant): e[3,1,2]" in out

    def test_reduce(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "ideal",
            "reduce",
            str(data_dir / "example.ideal"),
            "e[2,1] + e[3,1] - e[3,1,2]",
        )
        assert code == 0 and out.strip() == "e[3,1]"

    def test_an_empty_file_is_refused(self, capsys, tmp_path):
        f = tmp_path / "empty.ideal"
        f.write_text("# no generators and no vertices\n")
        assert run(capsys, "ideal", "check", str(f)) == (
            2, "", "error[ParseError]: empty.ideal:1: empty ideal file\n"
        )


    @pytest.mark.parametrize(
        "argv, text",
        [
            (("ideal", "check"), "vertices: 1, 2, 3\n1, 2\n2, 3\n3\n"),
            (("ideal", "reduce"), "vertices: 1, 2, 3\n# e[1] sorts first\n2, 3\n3\n1\n"),
            (("topology", "hasse"), "vertices: 1, 2, 3\nideal:\n1, 2\n3\n"),
        ],
        ids=["check", "reduce", "ideal-block"],
    )
    def test_a_grade_zero_generator_is_named_at_its_own_line(self, capsys, tmp_path, argv, text):
        # the first one-letter generator, in the file's labels, at its line
        f = tmp_path / "g0.ideal"
        f.write_text(text)
        extra = ("e[1,2]",) if argv[1] == "reduce" else ()
        assert run(capsys, *argv, str(f), *extra) == (
            2, "", "error[ParseError]: g0.ideal:4: generator e[3] has grade 0; "
            "ideals must vanish in grade 0\n"
        )


class TestManifold:
    def test_info(self, capsys, data_dir):
        code, out, _ = run(capsys, "manifold", "info", str(data_dir / "triangle.manifold"))
        assert code == 0
        assert "dimension: 1" in out
        assert "network: yes" in out
        assert "grade 1: 12, 23, 31" in out

    def test_dim_on_two_cycle_relation_file(self, capsys, data_dir):
        code, _, err = run(capsys, "manifold", "dim", str(data_dir / "twocycle.relation"))
        assert code == 2
        assert "error[NotAntisymmetric]" in err
        assert "1 <= 2 and 2 <= 1" in err

    def test_check_failure_is_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.manifold"
        bad.write_text("vertices: 1, 2\nwords:\n1\n2\n1, 2\n2, 1\n")
        code, out, _ = run(capsys, "manifold", "check", str(bad))
        assert code == 1
        assert "uniqueness: FAIL" in out
        assert "structure: FAILED" in out

    def test_check_failure_ends_with_its_verdict(self, capsys, tmp_path):
        # the face 2 of the word 12 and the singleton 2 are missing: every
        # check's line, the verdict last, and nothing on stderr
        bad = tmp_path / "bad.manifold"
        bad.write_text("vertices: 1, 2\nwords:\n1\n1, 2\n")
        code, out, err = run(capsys, "manifold", "check", str(bad))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "hereditarity: FAIL - 12 present but its face 2 is missing",
            "fully-ordered: ok",
            "uniqueness: ok",
            "singletons: FAIL - singleton 2 is missing",
            "structure: FAILED",
        ]

    def test_check_passes_on_triangle(self, capsys, data_dir):
        code, out, _ = run(capsys, "manifold", "check", str(data_dir / "triangle.manifold"))
        assert code == 0 and "structure: ok" in out

    def test_infinite_needs_max_grade(self, capsys, data_dir):
        code, out, _ = run(capsys, "manifold", "info", str(data_dir / "free_two.manifold"))
        assert code == 0
        assert "dimension: infinite" in out
        assert "pass --max-grade" in out
        code, out, _ = run(
            capsys,
            "manifold",
            "info",
            str(data_dir / "free_two.manifold"),
            "--max-grade",
            "2",
        )
        assert code == 0 and "grade 2: 121, 212" in out

    def test_enumeration_past_the_word_cap_is_refused(self, capsys, tmp_path):
        # about 5*4^40 words without the cap; refused before any output
        f = tmp_path / "big.manifold"
        f.write_text("vertices: 1, 2, 3, 4, 5\nideal:\n1, 2, 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "manifold", "info", str(f), "--max-grade", "40")
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_relation_paths_past_the_word_cap_are_refused(self, capsys, tmp_path):
        # a 1895-byte file: the total order on 22 vertices has 2**22 - 1 words
        f = tmp_path / "total22.relation"
        pairs = [f"{i} <= {j}" for i in range(1, 23) for j in range(i + 1, 23)]
        f.write_text("\n".join(["n 22", *pairs]) + "\n")
        code, out, err = run(capsys, "manifold", "dim", str(f))
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_relation_header_past_the_word_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        # n vertices are n one-letter words: refused at the header, before
        # the vertex table is built
        def no_table(labels):
            raise AssertionError("vertex table built")

        monkeypatch.setattr(fio, "VertexTable", no_table)
        f = tmp_path / "wide.relation"
        f.write_text("n 100001\n")
        code, out, err = run(capsys, "manifold", "dim", str(f))
        assert (code, out) == (2, "")
        assert err == "error[TooLarge]: relation path enumeration is capped at 100000 words\n"

    def test_relation_header_at_the_word_cap_passes(self, capsys, tmp_path):
        f = tmp_path / "wide.relation"
        f.write_text("n 100000\n")
        code, out, _ = run(capsys, "manifold", "dim", str(f))
        assert (code, out) == (0, "dimension: 0\n")

    @staticmethod
    def _distinct_letters_ideal(tmp_path, n):
        # the ideal of every pattern i, j, i: its words are the sequences of
        # distinct letters, one automaton state each
        f = tmp_path / f"iji{n}.manifold"
        labels = range(1, n + 1)
        gens = [f"{i}, {j}, {i}" for i in labels for j in labels if i != j]
        header = "vertices: " + ", ".join(map(str, labels))
        f.write_text("\n".join([header, "ideal:", *gens]) + "\n")
        return f

    def test_automaton_walk_past_the_state_cap_is_refused(self, capsys, tmp_path):
        # a 488-byte file whose automaton has 109 601 states
        f = self._distinct_letters_ideal(tmp_path, 8)
        code, out, err = run(capsys, "manifold", "dim", str(f))
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_automaton_walk_below_the_state_cap_passes(self, capsys, tmp_path):
        # 13 700 states
        f = self._distinct_letters_ideal(tmp_path, 7)
        code, out, _ = run(capsys, "manifold", "dim", str(f))
        assert (code, out) == (0, "dimension: 6\n")

    def test_listing_past_the_word_cap_is_refused(self, capsys, tmp_path):
        # finite, but its 109 600 words pass the word cap
        f = self._distinct_letters_ideal(tmp_path, 8)
        for argv in (("manifold", "check"), ("topology", "hasse")):
            code, out, err = run(capsys, *argv, str(f))
            assert (code, out) == (2, "")
            assert err == "error[TooLarge]: word enumeration is capped at 100000 words\n"

    def test_infinite_ideal_is_decided_from_its_generators(self, capsys, tmp_path):
        # every pair of v0..v18 but {v17, v18} carries a two-letter
        # generator, so only the words alternating v17 and v18 grow without
        # bound; a depth-first search of the automaton passes 100 001 states
        # before it meets a cycle
        f = tmp_path / "inf19.manifold"
        gens = [f"v{j}, v{i}" for i in range(17) for j in range(i + 1, 17)]
        gens += [f"v{i}, v{k}" for k in (17, 18) for i in range(17)]
        header = "vertices: " + ", ".join(f"v{i}" for i in range(19))
        f.write_text("\n".join([header, "ideal:", *gens]) + "\n")
        code, out, _ = run(capsys, "manifold", "dim", str(f))
        assert (code, out) == (0, "dimension: infinite\n")
        code, out, err = run(capsys, "topology", "hasse", str(f))
        assert (code, out) == (2, "")
        assert "error[InfiniteDimensional]" in err

    def test_info_walks_the_automaton_once(self, capsys, tmp_path, monkeypatch):
        walks = []
        original = manifolds.avoiding_words

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(manifolds, "avoiding_words", counted)
        # the total order on 4 vertices as an ideal complement: j, i for i < j
        f = tmp_path / "total4.manifold"
        gens = [f"{j}, {i}" for i in range(1, 5) for j in range(i + 1, 5)]
        f.write_text("\n".join(["vertices: 1, 2, 3, 4", "ideal:", *gens]) + "\n")
        code, out, _ = run(capsys, "manifold", "info", str(f))
        assert code == 0 and "network: yes" in out
        assert len(walks) == 1

    def test_info_lists_a_finite_ideal_before_its_dimension(self, capsys, tmp_path, monkeypatch):
        calls = {"avoiding_words": 0, "longest_avoiding_word": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(manifolds, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(manifolds, name, counted)
        # the total order on 4 vertices as an ideal complement: j, i for i < j
        f = tmp_path / "total4.manifold"
        gens = [f"{j}, {i}" for i in range(1, 5) for j in range(i + 1, 5)]
        f.write_text("\n".join(["vertices: 1, 2, 3, 4", "ideal:", *gens]) + "\n")
        code, out, _ = run(capsys, "manifold", "info", str(f))
        assert code == 0 and "dimension: 3\n" in out and "network: yes" in out
        assert calls == {"avoiding_words": 1, "longest_avoiding_word": 0}

    def test_info_past_the_word_cap_stops_at_the_word_cap(self, capsys, tmp_path):
        f = self._distinct_letters_ideal(tmp_path, 8)
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, out) == (2, "")
        assert err == "error[TooLarge]: word enumeration is capped at 100000 words\n"

    def test_network_test_stops_at_the_first_chain_that_is_no_word(self, capsys, tmp_path):
        # the singletons and pairs of 100 vertices, 5050 words: their
        # 1-form relation is a total order whose 161 700 three-letter
        # chains alone pass the word cap, but the first one is not a word
        f = tmp_path / "pairs100.manifold"
        labels = [f"v{i}" for i in range(100)]
        pairs = [f"v{i}, v{j}" for i in range(100) for j in range(i + 1, 100)]
        header = "vertices: " + ", ".join(labels)
        f.write_text("\n".join([header, "words:", *labels, *pairs]) + "\n")
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, err) == (0, "")
        assert "representation: explicit (5050 words)\n" in out and "network: no\n" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "manifold", "dim", "no-such-file")
        assert code == 2 and "error[ParseError]" in err


class TestTables:
    """A command builds exactly the min_open tables it prints."""

    @staticmethod
    def _total_order(tmp_path, n):
        f = tmp_path / f"total{n}.relation"
        pairs = [f"{i} <= {j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        f.write_text("\n".join([f"n {n}", *pairs]) + "\n")
        return f

    def test_verify_correspondence_builds_none(self, capsys, data_dir, tmp_path, table_builds):
        for path in (data_dir / "triangle.manifold", self._total_order(tmp_path, 10)):
            for extra in ((), ("--json",)):
                code, _, _ = run(capsys, "verify", "correspondence", str(path), *extra)
                assert code == 0
        assert table_builds == {"generated": 0, "trace": 0}

    @pytest.mark.parametrize("extra", [(), ("--dot",)])
    def test_hasse_reads_the_recipe_and_builds_none(
        self, capsys, data_dir, tmp_path, table_builds, extra
    ):
        ideal = tmp_path / "words.manifold"
        ideal.write_text("vertices: 1, 2, 3\nideal:\n2, 1\n3, 2\n1, 3, 1\n3, 1, 3\n")
        for path in (data_dir / "triangle.manifold", ideal, self._total_order(tmp_path, 8)):
            code, _, _ = run(capsys, "topology", "hasse", str(path), *extra)
            assert code == 0
        assert table_builds == {"generated": 0, "trace": 0}

    @pytest.mark.parametrize(
        "argv, built",
        [
            # the family lacks the deletion 2 of 12: only its table has the covers
            (("topology", "hasse", "gapped.manifold"), "generated"),
            (("topology", "json", "triangle.manifold"), "generated"),
            (("substitute", "simplicial", "triangle_boundary.complex"), "trace"),
        ],
    )
    def test_a_printed_space_builds_its_table(
        self, capsys, data_dir, tmp_path, table_builds, argv, built
    ):
        (tmp_path / "gapped.manifold").write_text("vertices: 1, 2\nwords:\n1\n1,2\n")
        folder = tmp_path if argv[2] == "gapped.manifold" else data_dir
        code, _, _ = run(capsys, *argv[:2], str(folder / argv[2]))
        assert code == 0
        assert table_builds == {name: int(name == built) for name in table_builds}


def test_a_reader_closing_stdout_early_gets_exit_two(tmp_path):
    # the diagram of the total order n=12 is about 0.5 MB, past any pipe buffer
    path = TestTables._total_order(tmp_path, 12)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for extra in ((), ("--dot",)):
        argv = [sys.executable, "-m", "finitary.cli", "topology", "hasse", str(path), *extra]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert len(err.splitlines()) == 1 and err.startswith("error[BrokenPipeError]: ")
        proc.stderr.close()


class TestTopology:
    def test_hasse_text(self, capsys, data_dir):
        code, out, _ = run(capsys, "topology", "hasse", str(data_dir / "triangle.manifold"))
        assert code == 0
        assert "edges (6):" in out
        assert "  12 < 1" in out

    def test_hasse_dot(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "topology", "hasse", str(data_dir / "triangle.manifold"), "--dot"
        )
        assert code == 0
        assert out.startswith("digraph hasse {")
        assert out.count("->") == 6

    def test_open_sets(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "topology", "open-sets", str(data_dir / "triangle.manifold")
        )
        assert code == 0
        # down-sets of the hexagon poset: any edge subset S plus any vertices
        # both of whose edges lie in S: 1 + 3*1 + 3*2 + 8
        assert "open sets (18):" in out

    def test_json(self, capsys, data_dir):
        code, out, _ = run(capsys, "topology", "json", str(data_dir / "triangle.manifold"))
        assert code == 0 and '"points"' in out


class TestSubstitute:
    def test_simplicial(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "substitute", "simplicial", str(data_dir / "triangle_boundary.complex")
        )
        assert code == 0
        assert "points (6): 1, 2, 3, 12, 13, 23" in out

    def test_sampled_deterministic(self, capsys, data_dir):
        args = (
            "substitute",
            "sampled",
            str(data_dir / "triangle_boundary.complex"),
            "--per-cell",
            "2",
            "--seed",
            "7",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2

    def test_circle(self, capsys):
        code, out, _ = run(capsys, "substitute", "circle", "--samples", "64")
        assert code == 0
        assert "classes (6):" in out

    def test_circle_sample_count_is_capped(self, capsys):
        code, out, err = run(capsys, "substitute", "circle", "--samples", "1000000000")
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_sampled_point_count_is_capped(self, capsys, data_dir):
        complex_file = str(data_dir / "triangle_boundary.complex")
        code, out, err = run(
            capsys, "substitute", "sampled", complex_file, "--per-cell", "1000000000"
        )
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_complex_closure_past_the_cell_cap_is_refused(self, capsys, tmp_path):
        # a 102-byte file: the 13-simplex it names has 2**14 - 1 faces
        f = tmp_path / "simplex14.complex"
        names = ", ".join(str(v) for v in range(1, 15))
        f.write_text(f"vertices: {names}\n{names}\n")
        code, out, err = run(capsys, "substitute", "simplicial", str(f))
        assert code == 2 and out == ""
        assert "error[TooLarge]" in err

    def test_trace_on_covering_file(self, capsys, data_dir):
        code, out, _ = run(capsys, "substitute", "trace", str(data_dir / "pair.covering"))
        assert code == 0
        assert "points (2): p, q" in out

    def test_word_labels_stay_apart_from_vertex_labels(self, capsys, tmp_path):
        # the simplex {a, b} used to be labelled "ab", like the vertex ab
        f = tmp_path / "mixed.complex"
        f.write_text("vertices: a, b, ab\na, b\n")
        for op in ("simplicial", "sampled"):
            code, out, _ = run(capsys, "substitute", op, str(f))
            assert code == 0
        assert "a,b#0" in out

    def test_closure_notes_go_to_stderr(self, capsys, tmp_path):
        f = tmp_path / "open.complex"
        f.write_text("vertices: 1, 2\n1, 2\n")
        code, out, err = run(capsys, "substitute", "simplicial", str(f))
        assert code == 0
        assert "added missing face" in err
        assert "points (3)" in out


class TestVerify:
    def test_triangle_verifies(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "verify", "correspondence", str(data_dir / "triangle.manifold")
        )
        assert code == 0
        assert "correspondence: VERIFIED" in out
        assert "  12 -> 12" in out

    def test_ten_vertex_total_order_verifies(self, capsys, tmp_path):
        # 1023 words: one stack frame per point in the isomorphism search
        # used to end in a RecursionError and exit 1
        rel = tmp_path / "total10.relation"
        pairs = [f"{i} <= {j}" for i in range(1, 11) for j in range(i + 1, 11)]
        rel.write_text("\n".join(["n 10"] + pairs) + "\n")
        code, out, _ = run(
            capsys, "verify", "correspondence", str(rel), "--per-cell", "1", "--json"
        )
        assert code == 0
        assert '"generated_points": 1023' in out and '"ok": true' in out

    def test_ten_vertex_total_order_agrees_on_all_three_routes(self, capsys, tmp_path):
        rel = tmp_path / "total10.relation"
        pairs = [f"{i} <= {j}" for i in range(1, 11) for j in range(i + 1, 11)]
        rel.write_text("\n".join(["n 10"] + pairs) + "\n")
        code, out, _ = run(capsys, "verify", "correspondence", str(rel), "--per-cell", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "correspondence: VERIFIED"
        assert [line for line in lines if line.endswith("points")] == [
            "generated space: 1023 points",
            "symbolic substitute: 1023 points",
            "sampled substitute (per_cell=1): 1023 points",
        ]

    def test_json_prints_the_payload(self, capsys, data_dir):
        path = data_dir / "triangle.manifold"
        code, out, _ = run(capsys, "verify", "correspondence", str(path), "--json")
        report = verify_correspondence(fio.parse_manifold(path.read_text(), path.name))
        assert code == 0
        assert out == json.dumps(report.payload(), indent=2) + "\n"

    def test_twelve_vertex_edge_label_differs_from_vertex_twelve(self, capsys, tmp_path):
        # the edge {1,2} used to be labelled "12", like vertex 12
        rel = tmp_path / "edge12.relation"
        rel.write_text("n 12\n1 <= 2\n")
        code, out, _ = run(capsys, "verify", "correspondence", str(rel))
        assert code == 0
        assert "correspondence: VERIFIED" in out and "  1,2 -> 1,2" in out

    def test_structure_violation_maps_to_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.manifold"
        bad.write_text("vertices: 1, 2\nwords:\n1\n2\n1, 2\n2, 1\n")
        code, _, err = run(capsys, "verify", "correspondence", str(bad))
        assert code == 2 and "error[StructureViolation]" in err

    def test_isomorphism_failure_maps_to_exit_one(self, capsys, data_dir, monkeypatch):
        # unreachable with a correct engine, so break the symbolic route:
        # the edge 12 no longer lies below the vertex 1
        from finitary import coarse

        real = coarse.simplicial_substitute

        def sabotaged(p):
            s = real(p)
            opens = list(s.min_open)
            opens[s.labels.index("1")] &= ~(1 << s.labels.index("12"))
            return table_space(s.labels, opens)

        monkeypatch.setattr(coarse, "simplicial_substitute", sabotaged)
        code, out, _ = run(
            capsys, "verify", "correspondence", str(data_dir / "triangle.manifold")
        )
        assert code == 1
        lines = out.splitlines()
        at = lines.index("generated ~ symbolic: NOT ISOMORPHIC")
        assert lines[at + 1 : at + 3] == [
            "  order not preserved by matching labels: 12 <= 1 in generated, "
            "not 12 <= 1 in symbolic",
            "  points per grade: generated 3, 3; symbolic 3, 3",
        ]
        at = lines.index("symbolic ~ sampled: NOT ISOMORPHIC")
        assert lines[at + 1] == (
            "  order not preserved by the identity: not 12 <= 1 in symbolic, "
            "12#0 <= 1#0 in sampled"
        )
        assert lines[-1] == "correspondence: FAILED"


def _total_order_text(n):
    pairs = [f"{i} <= {j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return "\n".join([f"n {n}", *pairs]) + "\n"


def _seeded_relation_text(n, seed):
    rng = random.Random(seed)
    pairs = [
        f"{i} <= {j}" for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5
    ]
    return "\n".join([f"n {n}", *pairs]) + "\n"


RELATION_FILES = {
    "total6": _total_order_text(6),
    "total9": _total_order_text(9),
    "total12": _total_order_text(12),
    "total14": _total_order_text(14),
    "seeded9": _seeded_relation_text(9, 2024),
    # 20 000 singleton cells: masks up to 20 000 bits wide
    "n20000": "n 20000\n",
}

# SHA-1 of the stdout of each command on each relation file: the chain
# listing may change how it walks, never what the relation path prints
RELATION_STDOUT_SHA1 = {
    ("total6", "verify"): "67f050394449c7ef8b2855b24a6de7ff913396e8",
    ("total6", "manifold"): "ceed772a2e6fbbfd9844286ef49aa9c5211dcced",
    ("total9", "verify"): "b5730756718760d157fdefa6f9c5b98062cd71b0",
    ("total9", "manifold"): "0aec30b5d7cc78c77a12380d12cc8fbe6de9afbd",
    ("total12", "verify"): "a3191eebcbfc4343c8290a8e9a40087d5a2fcf30",
    ("total12", "manifold"): "9746575ee305becccef8e3db37524eefb97a8fe4",
    ("total14", "verify"): "f668cb437566b0c1e2180bf2d3020c3aabf675bd",
    ("total14", "manifold"): "c9769b4a8fd7230dcd07959786f78e618f77fe34",
    ("n20000", "verify"): "1c5ad1ca9443758e498958a83362d938a21a6077",
    ("n20000", "manifold"): "a885316848d45e2ce1206ed35ca6e19d324082ce",
    ("seeded9", "verify"): "ae6d08d7ecc77ad2ad882762f5de4ee8a04f0757",
    ("seeded9", "manifold"): "70035b4181378b0a09c88972ad5271afc5f43d34",
    # the benchmark's setting: several samples per cell merge in their class
    ("total9", "verify3"): "f6988c54b66a6b078ead2930b2b0bf218ea6b1a3",
    ("total12", "verify3"): "ba61b9af1009398f5f3847a2bc74b8d91d4ffea8",
    ("seeded9", "verify3"): "07ba257f313122e469dc89dd03979150307e7318",
}
COMMANDS = {
    "verify": ("verify", "correspondence", "{}", "--per-cell", "1"),
    "verify3": ("verify", "correspondence", "{}", "--per-cell", "3", "--seed", "7"),
    "manifold": ("manifold", "info", "{}"),
}


@pytest.mark.parametrize("name, command", sorted(RELATION_STDOUT_SHA1))
def test_relation_path_stdout_is_pinned(capsys, tmp_path, name, command):
    f = tmp_path / f"{name}.relation"
    f.write_text(RELATION_FILES[name])
    argv = [str(f) if arg == "{}" else arg for arg in COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha1(out.encode()).hexdigest() == RELATION_STDOUT_SHA1[name, command]


@pytest.mark.parametrize("op, opts", [("hasse", ()), ("hasse", ("--dot",)), ("json", ())])
def test_the_ideal_route_prints_what_the_relation_route_prints(capsys, tmp_path, op, opts):
    # the network manifold of an antisymmetric relation is the complement
    # of the ideal its unrelated ordered pairs generate
    rng = random.Random(39)
    for _ in range(25):
        n = rng.randint(1, 7)
        rel = random_antisymmetric_relation(rng, n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        relation = tmp_path / "r.relation"
        relation.write_text(
            "\n".join([f"n {n}"] + [f"{i + 1} <= {j + 1}" for i, j in pairs if rel.holds(i, j)])
            + "\n"
        )
        ideal = tmp_path / "r.manifold"
        ideal.write_text(
            "\n".join(
                ["vertices: " + ", ".join(str(v + 1) for v in range(n)), "ideal:"]
                + [f"{i + 1}, {j + 1}" for i, j in pairs if not rel.holds(i, j)]
            )
            + "\n"
        )
        outputs = [run(capsys, "topology", op, str(f), *opts) for f in (relation, ideal)]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1], (n, rel)


# every demo complex has one-character labels; this one's cells join with
# commas, in the output and in the seven "added missing face" notes
MULTICHAR_COMPLEX = """\
# multi-character labels: cells join with commas
vertices: v1, v2, v3, w
v1, v2, v3
v3, w
"""
MULTICHAR_STDERR_SHA1 = "bd6219e52bcf8c1cde19f51569516ccc9d044ed1"
MULTICHAR_STDOUT_SHA1 = {
    "substitute simplicial {}": "614e97e30c06da44bfd7af212a1e4f87a27a69fe",
    "substitute simplicial {} --json": "4966f9b0e0eb1f858ea77f1b40a45f1b1ee09167",
    "substitute sampled {} --per-cell 2 --seed 3": "241232f3704abba28f8c7ed5f1c338d18027c75b",
}


@pytest.mark.parametrize("form", sorted(MULTICHAR_STDOUT_SHA1))
def test_multichar_complex_output_is_pinned(capsys, tmp_path, form):
    f = tmp_path / "multichar.complex"
    f.write_text(MULTICHAR_COMPLEX)
    code, out, err = run(capsys, *(str(f) if arg == "{}" else arg for arg in form.split()))
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == MULTICHAR_STDOUT_SHA1[form]
    assert hashlib.sha1(err.encode()).hexdigest() == MULTICHAR_STDERR_SHA1


class TestParser:
    def test_built_once_per_process(self, capsys, data_dir, monkeypatch):
        from finitary import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                code, _, _ = run(capsys, "manifold", "dim", str(data_dir / "triangle.manifold"))
                assert code == 0
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "correspondence"],
            ["envelope", "d", "-3/2i*e[1]", "--vertices", "1,2"],
            ["envelope", "--vertices", "1,2", "--", "d", "--"],
            ["envelope", "d", "e[1]", "e[2]", "--vertices", "1,2"],
            ["envelope", "mul", "e[1]", "--vertices", "1,2"],
            ["substitute", "sampled"],
            ["ideal", "reduce", "example.ideal"],
            ["manifold", "size", "triangle.manifold"],
            ["bogus"],
            [],
        ],
    )
    def test_usage_errors_keep_the_exit_contract(self, capsys, data_dir, argv):
        # the wording is argparse's, which differs across Python versions
        argv = [str(data_dir / a) if a.endswith((".ideal", ".manifold")) else a for a in argv]
        code, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error[UsageError]: finitary")

    @pytest.mark.parametrize(
        "argv, rule, tail",
        [
            (["envelope", "d", "e[1]", "e[2]", "--vertices", "1,2"],
             "envelope d takes exactly 1 form argument(s)", "unrecognized arguments: e[2]"),
            (["envelope", "mul", "e[1]", "--vertices", "1,2"],
             "envelope mul takes exactly 2 form argument(s)", "required: form"),
            (["envelope", "inner", "e[1]", "e[1]", "e[2]", "--vertices", "1,1"],
             "envelope inner takes exactly 2 form argument(s)", "unrecognized arguments: e[2]"),
            (["ideal", "reduce", "example.ideal"],
             "ideal reduce needs a form expression", "required: form"),
            (["ideal", "reduce", "missing.ideal"],
             "ideal reduce needs a form expression", "required: form"),
            (["substitute", "sampled"], "substitute sampled needs an input file", "required: file"),
            (["substitute", "trace", "--json"],
             "substitute trace needs an input file", "required: file"),
            (["substitute", "circle", "no-such-file"],
             "substitute circle takes no input file", "unrecognized arguments: no-such-file"),
            (["ideal", "check", "example.ideal", "e[9"],
             "ideal check takes no form expression", "unrecognized arguments: e[9"),
            (["ideal", "check", "missing.ideal", "e[1]"],
             "ideal check takes no form expression", "unrecognized arguments: e[1]"),
            (["manifold", "check", "triangle.manifold", "--max-grade", "2"],
             "manifold check takes no --max-grade", "unrecognized arguments: --max-grade 2"),
            (["manifold", "dim", "missing.manifold", "--max-grade", "0"],
             "manifold dim takes no --max-grade", "unrecognized arguments: --max-grade 0"),
            (["topology", "json", "triangle.manifold", "--dot"],
             "topology json takes no --dot", "unrecognized arguments: --dot"),
            (["topology", "open-sets", "triangle.manifold", "--dot"],
             "topology open-sets takes no --dot", "unrecognized arguments: --dot"),
            (["substitute", "circle", "--per-cell", "5", "--seed", "3"],
             "substitute circle takes no --per-cell or --seed",
             "unrecognized arguments: --per-cell 5 --seed 3"),
            (["substitute", "simplicial", "triangle_boundary.complex", "--samples", "7", "--seed", "9"],
             "substitute simplicial takes no --samples or --seed",
             "unrecognized arguments: --samples 7 --seed 9"),
            (["verify", "correspondence", "missing.manifold", "--samples", "9"],
             "verify correspondence takes no --samples", "unrecognized arguments: --samples 9"),
            (["manifold", "dim", "triangle.manifold", "--dot"],
             "manifold dim takes no --dot", "unrecognized arguments: --dot"),
        ],
    )
    def test_a_command_refuses_its_own_arity_first(self, capsys, data_dir, argv, rule, tail):
        # each op's parser declares exactly the arguments the op reads, so
        # a missing or a surplus one is refused before any input is read;
        # the wording between the prog and the tail is argparse's, which
        # differs across Python versions
        argv = [str(data_dir / a) if a.endswith((".ideal", ".manifold", ".complex")) else a
                for a in argv]
        code, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert (code, out) == (2, "") and len(lines) == 1, rule
        assert lines[0].startswith("error[UsageError]: finitary") and lines[0].endswith(tail), rule

    @pytest.mark.parametrize("argv", [["--help"], ["envelope", "--help"]])
    def test_help_goes_to_stdout_with_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.out.startswith("usage: finitary") and captured.err == ""


class TestInputErrors:
    """Inputs the readers and the library refuse reach the report as a
    FinitaryError; any other exception is a fault of the program and
    propagates."""

    def test_a_file_that_is_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "latin1.manifold"
        f.write_bytes("vertices: é\n".encode("latin-1"))
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: {f}:0: cannot read file: not UTF-8 text\n"

    def test_a_file_that_is_not_utf8_after_a_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "latin1.manifold"
        f.write_bytes(b"\xef\xbb\xbf" + "vertices: é\n".encode("latin-1"))
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: {f}:0: cannot read file: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("order.relation", "n 3\n"),
            ("triangle.manifold", "vertices: 1, 2, 3\nrelation:\n1 <= 2\n2 <= 3\n3 <= 1\n"),
        ],
    )
    def test_a_byte_order_mark_is_read_past(self, capsys, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run(capsys, "verify", "correspondence", str(plain))
        assert expected[0] == 0 and expected[1].endswith("correspondence: VERIFIED\n")
        assert run(capsys, "verify", "correspondence", str(marked)) == expected

    def test_a_negative_max_grade(self, capsys, data_dir):
        f = str(data_dir / "triangle.manifold")
        code, out, err = run(capsys, "manifold", "info", f, "--max-grade", "-1")
        lines = err.splitlines()
        assert (code, out) == (2, "") and len(lines) == 1
        assert lines[0].startswith("error[UsageError]: finitary")
        assert lines[0].endswith("invalid non_negative value: '-1'")
        code, out, _ = run(capsys, "manifold", "info", f, "--max-grade", "0")
        assert code == 0 and out.endswith("words:\n  grade 0: 1, 2, 3\n")

    def test_a_relation_header_past_the_digit_limit(self, capsys, tmp_path):
        f = tmp_path / "long.relation"
        f.write_text(f"n {'9' * 5000}\n")
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, out) == (2, "")
        assert err == "error[TooLarge]: relation path enumeration is capped at 100000 words\n"

    def test_a_relation_header_of_5000_zeros(self, capsys, tmp_path):
        f = tmp_path / "zeros.relation"
        f.write_text(f"n {'0' * 5000}\n")
        code, out, err = run(capsys, "manifold", "info", str(f))
        assert (code, out) == (2, "")
        assert err == f"error[ParseError]: {f.name}:1: vertex count must be at least 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["substitute", "sampled", "triangle_boundary.complex", "--per-cell", "0"],
            ["verify", "correspondence", "triangle.manifold", "--per-cell", "0"],
            ["substitute", "circle", "--samples", "0"],
        ],
    )
    def test_a_count_below_one(self, capsys, data_dir, argv):
        argv = [str(data_dir / a) if "." in a else a for a in argv]
        code, out, err = run(capsys, *argv)
        lines = err.splitlines()
        assert (code, out) == (2, "") and len(lines) == 1
        assert lines[0].startswith("error[UsageError]: finitary")
        assert lines[0].endswith("invalid positive value: '0'")

    def test_a_value_error_inside_a_command_propagates(self, capsys, data_dir, monkeypatch):
        def fault(*args):
            raise ValueError("a fault of the program")

        monkeypatch.setattr(fio, "parse_manifold", fault)
        with pytest.raises(ValueError, match="a fault of the program"):
            main(["manifold", "dim", str(data_dir / "triangle.manifold")])


# -- every file-reading form ends in exit 0, 1 or 2 ---------------------------

_FILE_FORMS = [
    "ideal check {}",
    "ideal reduce {} e[1]-1/2*e[1,2]",
    "manifold info {}",
    "manifold info {} --max-grade 2",
    "manifold check {}",
    "manifold dim {}",
    "topology hasse {}",
    "topology hasse {} --dot",
    "topology open-sets {}",
    "topology json {}",
    "substitute simplicial {}",
    "substitute simplicial {} --json",
    "substitute sampled {} --per-cell 1",
    "substitute sampled {} --json",
    "substitute trace {}",
    "substitute trace {} --json",
    "verify correspondence {}",
    "verify correspondence {} --json --per-cell 1",
]

_LABELS = ("1", "2", "3", "4", "a", "b")

# Digits appear only as one-character tokens joined by spaces, so an ``n``
# header names at most 9 vertices: the relation reader builds a label per
# vertex before any cap applies, so a long count costs memory in proportion
# to it, which this test does not probe.
_TOKENS = _LABELS + (
    ",", ":", "<=", "#", "-", "A", "B", "p", "e[1]", "1/2", "i",
    "n", "vertices:", "words:", "ideal:", "relation:", "covers:",
)


def _header(kind, labels, count):
    if kind == "vertices":
        return f"vertices: {', '.join(labels)}\n"
    if kind in ("words:", "ideal:", "relation:"):
        return f"vertices: {', '.join(labels)}\n{kind}\n"
    if kind == "n":
        return f"n {count}\n"
    if kind == "covers:":
        return "covers: A, B\n"
    return ""


_HEADERS = st.builds(
    _header,
    st.sampled_from(["vertices", "words:", "ideal:", "relation:", "n", "covers:", "none"]),
    st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4, unique=True),
    st.integers(min_value=0, max_value=4),
)
_LINES = st.one_of(
    st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3).map(", ".join),
    st.tuples(st.sampled_from(_LABELS), st.sampled_from(_LABELS)).map(" <= ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join),
    st.text(alphabet=" \t,:<=#-abAB.e[]+*/i", max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(_HEADERS, st.lists(_LINES, max_size=6).map("\n".join))
# a failed structure check: exit 1 from manifold check, a multi-line report
# with exit 2 from the forms that need the structure
@example("vertices: 1, 2\nwords:\n", "1\n2\n1, 2\n2, 1")
def test_every_file_form_exits_zero_one_or_two(header, body):
    """The exit contract: 0 for a result, 1 for a failure shown with its
    witness, 2 for one error[...] report on stderr and nothing on stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(header + body)
        for form in _FILE_FORMS:
            argv = [word.format(path) for word in form.split()]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            lines = err.getvalue().splitlines()
            reports = [line.startswith("error[") for line in lines]
            if code == 2:
                assert out.getvalue() == "", argv
                first = next((i for i, x in enumerate(lines) if not x.startswith("note: ")), 0)
                # one report, which may run over several lines (a StructureViolation)
                assert reports[first:] == [True] + [False] * (len(lines) - first - 1), argv
            else:
                assert not any(reports), argv
            if code == 1:
                assert "FAIL" in out.getvalue() or "NOT ISOMORPHIC" in out.getvalue(), argv


# terms that parse, next to coefficients and words that do not, and atoms
# strung together at random
_COEFFS = ("", "", "3/2*", "i*", "(1+2i)*", "(1.5 - i)*", "1/0*", "１*", "1_0*", "1e3*", "(*")
_WORDS = ("e[1,2]", "e[2,1,3]", "e[1]", "e[3,2]", "e[]", "e[a]", "e[1,1]", "e[1")
_SIGNED_TERMS = st.tuples(
    st.sampled_from(["", "-", " + ", " - ", "+"]), st.sampled_from(_COEFFS), st.sampled_from(_WORDS)
).map("".join)
_ATOMS = ("e[1,2]", "i", "3/2", "(1+2i)", "0", "(", ")", "-", "+", "*", " ")
_FORMS = st.one_of(
    st.lists(_SIGNED_TERMS, min_size=1, max_size=3).map("".join),
    st.lists(st.sampled_from(_ATOMS), max_size=6).map("".join),
)


def _envelope_run(vertices, op, forms):
    """finitary envelope OP --vertices V -- FORM..., with as many forms
    as the op takes: its exit code, stdout and stderr lines."""
    argv = ["envelope", op, "--vertices", vertices, "--", *forms[: 1 if op == "d" else 2]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["1,2,3", "1,2,3", "a,b", "1,1", "1", "", "1,,2"]),
    st.sampled_from(["d", "mul", "inner"]),
    st.lists(_FORMS, min_size=2, max_size=2),
)
@example("1,2,3", "mul", ["-e[1,2]", "3/2*e[2,3]"])
@example("1,2", "d", ["--", "e[1]"])
def test_every_envelope_argv_exits_zero_or_two(vertices, op, forms):
    """The exit contract over the form parser: 0 with a result on stdout,
    or 2 with one error[...] line on stderr and nothing on stdout; the --
    lets a form starting with - reach the form parser, and a form that is
    a second -- is refused."""
    code, out, lines = _envelope_run(vertices, op, forms)
    assert code in (0, 2), (vertices, op, forms)
    if code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error["), (op, forms)
    else:
        assert out.strip() and not any(x.startswith("error[") for x in lines), (op, forms)


def test_the_envelope_argv_reaches_the_form_parser():
    # the argv the fuzz test builds parses, and a form starting with -
    # is read as a form
    assert _envelope_run("1,2,3", "mul", ["-e[1,2]", "3/2*e[2,3]"]) == (0, "-3/2*e[1,2,3]\n", [])
