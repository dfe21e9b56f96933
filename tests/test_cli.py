"""Command-line behaviour: outputs, exit codes and error mapping."""

import time

from finitary.cli import main


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

    def test_bad_form_is_input_error(self, capsys):
        code, _, err = run(capsys, "envelope", "d", "e[1,1]", "--vertices", "1,2")
        assert code == 2 and "error[ParseError]" in err


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

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "manifold", "dim", "no-such-file")
        assert code == 2 and "error[ParseError]" in err


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
        # unreachable with a correct engine, so force a failing report
        import finitary.cli as cli_module

        real = cli_module.verify_correspondence

        def sabotaged(m, per_cell, seed):
            report = real(m, per_cell=per_cell, seed=seed)
            return type(report)(
                generated=report.generated,
                symbolic=report.symbolic,
                sampled=report.sampled,
                per_cell=report.per_cell,
                seed=report.seed,
                gen_to_sym=None,
                sym_to_sam=report.sym_to_sam,
            )

        monkeypatch.setattr(cli_module, "verify_correspondence", sabotaged)
        code, out, _ = run(
            capsys, "verify", "correspondence", str(data_dir / "triangle.manifold")
        )
        assert code == 1
        assert "generated ~ symbolic: NOT ISOMORPHIC" in out
        assert "correspondence: FAILED" in out
