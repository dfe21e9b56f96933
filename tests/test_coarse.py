"""Trace quotients, simplicial substitutes, sampling, the circle example."""

import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from finitary import (
    Covering,
    Manifold,
    NotACover,
    Relation,
    SimplicialComplex,
    UncoveredPoint,
    circle_covering,
    generated_space,
    members,
    poset_isomorphic,
    sampled_substitute,
    simplicial_substitute,
    trace_substitute,
    verify_correspondence,
)
from finitary import coarse, complexes, io as fio, manifolds
from finitary.cli import main
from finitary.coarse import STANDARD_CIRCLE_ARCS, STANDARD_CIRCLE_EXTRA_POINTS
from finitary.envelope import deletions
from finitary.errors import FinitaryError, _restore

import certificate_reference
from conftest import DATA, random_antisymmetric_relation, random_manifold, table_space


def mask(indices):
    return sum(1 << i for i in indices)


def cell(*verts):
    return mask(verts)


TRIANGLE = Manifold.from_relation(Relation(3, [(0, 1), (1, 2), (2, 0)]))
BOUNDARY_TRIANGLE = TRIANGLE.to_simplicial()
SEGMENT = SimplicialComplex(2, [cell(0), cell(1), cell(0, 1)])


# traces held by int objects of their own: neither is a cached small int
_T, _U = 0b1100000001, 0b1000000011
_W = 1 << 5000
assert int(str(_T)) is not _T and int(str(_W)) is not _W


def _plain_quotient(c):
    """trace_substitute by its definition: each trace looked up on its own,
    classes by first occurrence, min_open(T) the classes whose trace holds T."""
    index = {}
    class_of = tuple(index.setdefault(t, len(index)) for t in c.traces)
    labels = [c.point_labels[class_of.index(k)] for k in range(len(index))]
    opens = [sum(1 << k for k, s in enumerate(index) if t & ~s == 0) for t in index]
    return table_space(labels, opens), class_of


class TestTraceSubstitute:
    def test_two_points_one_nested_cover(self):
        c = Covering(("A", "B"), ("p", "q"), [0b01, 0b11])
        space, class_of = trace_substitute(c)
        assert space.n == 2 and class_of == (0, 1)
        assert members(space.min_open[space.labels.index("p")]) == [0, 1]

    def test_constant_trace_collapses_everything(self):
        c = Covering(("A",), ("p", "q", "r"), [1, 1, 1])
        space, class_of = trace_substitute(c)
        assert space.n == 1 and class_of == (0, 0, 0)

    def test_uncovered_point_rejected(self):
        with pytest.raises(UncoveredPoint):
            Covering(("A",), ("p",), [0])

    def test_each_trace_is_hashed_once(self):
        hashed = []

        class Trace(int):
            def __hash__(self):
                hashed.append(int(self))
                return int.__hash__(self)

        traces = tuple(map(Trace, [1, 3, 1, 2, 3]))
        c = _restore(Covering, (("A", "B"), ("p", "q", "r", "s", "t"), traces))
        space, class_of = trace_substitute(c)
        assert class_of == (0, 1, 0, 2, 1)
        assert space.labels == ("p", "q", "s")
        assert hashed == [1, 3, 1, 2, 3]
        # a run of one trace object is hashed once
        hashed.clear()
        t, u = Trace(1), Trace(3)
        c = _restore(Covering, (("A", "B"), tuple("pqrstu"), (t, t, t, u, u, t)))
        space, class_of = trace_substitute(c)
        assert class_of == (0, 0, 0, 1, 1, 0)
        assert space.labels == ("p", "s")
        assert hashed == [1, 3, 1]

    @pytest.mark.parametrize(
        "traces",
        [
            # equal traces held by distinct int objects
            [_T, int(str(_T)), int(str(_T)), _U, int(str(_U)), _T],
            # interleaved runs of two trace objects
            [_T, _U, _T, _T, _U, _T],
            [1, 2, 1, 2, 2, 1],
            # wide masks, one run broken by an equal copy
            [_W, _W, _W | 1, int(str(_W)), _W | 1, _W, _W],
        ],
        ids=["equal-copies", "interleaved", "interleaved-small", "wide"],
    )
    def test_runs_give_the_plain_quotient(self, traces):
        covers = [f"c{i}" for i in range(max(traces).bit_length())]
        c = Covering(covers, [f"p{i}" for i in range(len(traces))], traces)
        assert trace_substitute(c) == _plain_quotient(c)

    def test_traces_must_be_int_masks(self):
        with pytest.raises(TypeError):
            Covering(("A",), ("p",), [{0}])
        with pytest.raises(TypeError):
            Covering(("A",), ("p",), [True])

    @pytest.mark.parametrize(
        "covers, points, traces, message",
        [
            (("A",), ("p", "q"), [1], "one trace per point required"),
            (("A",), ("p", "p"), [1, 1], "point labels must be unique"),
            (("A", "A"), ("p",), [1], "cover labels must be unique"),
        ],
    )
    def test_malformed_coverings_refused(self, covers, points, traces, message):
        with pytest.raises(ValueError, match=message):
            Covering(covers, points, traces)

    @pytest.mark.parametrize("trace", [-1, -2, 0b100, 0b111])
    def test_mask_outside_the_cover_sets_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown cover sets"):
            Covering(("A", "B"), ("p",), [trace])

    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
            min_size=1,
            max_size=12,
        )
    )
    def test_always_t0(self, traces):
        c = Covering(
            tuple("ABCDE"),
            tuple(f"p{i}" for i in range(len(traces))),
            map(mask, traces),
        )
        space, _ = trace_substitute(c)
        assert len(set(space.min_open)) == space.n

    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_the_definition_on_any_traces(self, traces):
        # any trace family on five cover sets, hereditary or not
        traces = [mask(t) for t in traces]
        labels = tuple(f"p{i}" for i in range(len(traces)))
        space, class_of = trace_substitute(Covering(tuple("ABCDE"), labels, traces))
        assert set(class_of) == set(range(space.n))
        first = [class_of.index(k) for k in range(space.n)]
        assert space.labels == tuple(labels[x] for x in first)
        for x, s in enumerate(traces):
            for y, t in enumerate(traces):
                assert (class_of[x] == class_of[y]) == (s == t)
            holding = mask(k for k, y in enumerate(first) if s & ~traces[y] == 0)
            assert space.min_open[class_of[x]] == holding

    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
            min_size=1,
            max_size=10,
        ),
        st.sets(st.integers(min_value=0, max_value=9)),
    )
    def test_refinement_never_merges_classes(self, traces, new_members):
        c = Covering(
            tuple("ABCD"),
            tuple(f"p{i}" for i in range(len(traces))),
            map(mask, traces),
        )
        refined = Covering(
            tuple("ABCDE"),
            c.point_labels,
            [t | (1 << 4 if p in new_members else 0) for p, t in enumerate(c.traces)],
        )
        before, _ = trace_substitute(c)
        after, _ = trace_substitute(refined)
        assert after.n >= before.n


class TestSimplicialSubstitute:
    def test_boundary_triangle_is_the_six_point_space(self):
        space = simplicial_substitute(BOUNDARY_TRIANGLE)
        assert space.n == 6
        iso = poset_isomorphic(generated_space(TRIANGLE), space)
        assert iso is not None

    def test_single_vertex(self):
        space = simplicial_substitute(SimplicialComplex(1, [cell(0)]))
        assert space.n == 1

    def test_segment_min_opens(self):
        space = simplicial_substitute(SEGMENT)
        assert space.n == 3
        edge = space.labels.index("12")
        assert members(space.min_open[edge]) == [edge]
        v = space.labels.index("1")
        assert members(space.min_open[v]) == sorted({v, edge})

    def test_point_per_simplex_and_star_topology(self):
        rng = random.Random(73)
        complexes_ = [random_manifold(rng, max_vertices=5).to_simplicial() for _ in range(15)]
        complexes_.append(SimplicialComplex(8, range(1, 1 << 8)))  # the full 8-simplex
        for p in complexes_:
            space = simplicial_substitute(p)
            cells = p.simplices
            assert space.n == len(cells)
            for x, sigma in enumerate(cells):
                expected = [y for y, tau in enumerate(cells) if sigma & ~tau == 0]
                assert members(space.min_open[x]) == expected

    def test_cofacet_closure_equals_the_trace_quotient(self):
        rng = random.Random(81)
        for _ in range(60):
            p = random_manifold(rng, max_vertices=6).to_simplicial()
            c = Covering(p.labels, p.cell_labels, p.simplices)
            assert simplicial_substitute(p) == trace_substitute(c)[0]

    def test_vertex_stars_and_cell_stars_give_one_quotient(self):
        # the covering by the star of every cell: bit j of the trace of
        # cell i set iff simplices[j] is a face of simplices[i]
        rng = random.Random(83)
        for _ in range(40):
            p = random_manifold(rng).to_simplicial()
            cells = p.simplices
            cell_stars = [
                mask(j for j, tau in enumerate(cells) if tau & ~sigma == 0)
                for sigma in cells
            ]
            labels = p.cell_labels
            by_cell_stars = Covering(labels, labels, cell_stars)
            by_vertex_stars = Covering(p.labels, labels, cells)
            assert trace_substitute(by_cell_stars) == trace_substitute(by_vertex_stars)

    def test_cover_intersections_are_covers_or_empty(self):
        cells = BOUNDARY_TRIANGLE.simplices
        members = {
            s: {t for t in cells if s & ~t == 0} for s in cells
        }
        for a in cells:
            for b in cells:
                meet = members[a] & members[b]
                union = a | b
                if union in BOUNDARY_TRIANGLE.simplices:
                    assert meet == members[union]
                else:
                    assert meet == set()


class TestSampling:
    def test_weights_positive_and_normalized(self):
        # per_cell draws per cell, in cell order, each one numerator from 1
        # to 1024 per carrier vertex; the weights are the numerators over
        # their sum, so they sum to 1 and are positive
        draws = list(coarse._draws(BOUNDARY_TRIANGLE, per_cell=10, seed=5))
        assert len(draws) == len(BOUNDARY_TRIANGLE)
        for sigma, cell_draws in zip(BOUNDARY_TRIANGLE.simplices, draws):
            assert len(cell_draws) == 10
            for numerators in cell_draws:
                assert len(numerators) == sigma.bit_count()
                assert all(type(a) is int and 1 <= a <= 1024 for a in numerators)

    def test_per_cell_below_one_rejected(self):
        with pytest.raises(ValueError, match="per_cell must be at least 1"):
            list(coarse._draws(BOUNDARY_TRIANGLE, per_cell=0, seed=0))

    def test_sampling_is_deterministic(self):
        a = list(coarse._draws(BOUNDARY_TRIANGLE, per_cell=4, seed=3))
        b = list(coarse._draws(BOUNDARY_TRIANGLE, per_cell=4, seed=3))
        assert a == b

    def test_sample_weights_are_pinned(self):
        # The generator is seeded from a string, not from hash(), so these
        # exact draws (on the edge 12, weights 731/1709, 978/1709 and
        # 695/1370, 675/1370) hold on every interpreter.
        assert list(coarse._draws(BOUNDARY_TRIANGLE, per_cell=2, seed=5)) == [
            [(986,), (561,)],
            [(126,), (148,)],
            [(758,), (956,)],
            [(731, 978), (695, 675)],
            [(727, 698), (364, 480)],
            [(799, 713), (115, 69)],
        ]


class TestSampledSubstitute:
    def test_matches_symbolic_on_random_complexes(self):
        rng = random.Random(79)
        for trial in range(20):
            p = random_manifold(rng, max_vertices=6).to_simplicial()
            if len(p) > 40:
                continue
            space = sampled_substitute(p, per_cell=rng.choice((1, 2, 3)), seed=trial)
            assert poset_isomorphic(simplicial_substitute(p), space) is not None

    def test_trace_is_the_support_not_the_carrier(self, monkeypatch):
        # a sample of the edge 12 with zero weight at vertex 2 lies in the
        # star of vertex 1 only, so it merges into the class of vertex 1
        drawn = coarse._draws

        def degenerate(p, per_cell, seed):
            out = list(drawn(p, per_cell, seed))
            out[p.simplices.index(cell(0, 1))][0] = (1, 0)
            return out

        monkeypatch.setattr(coarse, "_draws", degenerate)
        space = sampled_substitute(BOUNDARY_TRIANGLE, per_cell=1, seed=0)
        assert space.n == 5
        assert "12#0" not in space.labels

    def test_any_draw_keeps_its_support(self, monkeypatch):
        # zeros, negative numerators and tuples one numerator short or long,
        # among normal draws: each point's trace is still its support, as a
        # public Covering of the supports has it
        rng = random.Random(31)
        degenerate = 0
        for trial in range(60):
            p = random_manifold(rng, max_vertices=5).to_simplicial()
            per_cell = rng.choice((1, 2, 3))
            draws, labels, traces = [], [], []
            for sigma, label in zip(p.simplices, p.cell_labels):
                k = sigma.bit_count()
                draws.append([])
                for j in range(per_cell):
                    length = max(1, k + rng.choice((-1, 0, 0, 1)))
                    d = [rng.choice((0, -3, 1, 7, 1024)) for _ in range(length)]
                    d[rng.randrange(min(len(d), k))] = rng.randint(1, 1024)  # a nonempty support
                    draws[-1].append(tuple(d))
                    support = mask(v for v, a in zip(members(sigma), d) if a > 0)
                    labels.append(f"{label}#{j}")
                    traces.append(support)
                    degenerate += support != sigma
            monkeypatch.setattr(coarse, "_draws", lambda *_: draws)
            public = trace_substitute(Covering(p.labels, labels, traces))[0]
            assert sampled_substitute(p, per_cell, trial) == public
        assert degenerate

    def test_an_empty_support_is_refused_at_assembly(self, monkeypatch):
        # a draw with no positive numerator lies in no vertex star: refused
        # where the covering is assembled, as the public Covering refuses it
        p = Manifold.from_relation(Relation(2, [(0, 1)])).to_simplicial()
        drawn = coarse._draws

        def empty(p, per_cell, seed):
            out = list(drawn(p, per_cell, seed))
            out[0][0] = (0,)
            return out

        monkeypatch.setattr(coarse, "_draws", empty)
        message = f"point {p.cell_labels[0]}#0 lies in no cover set"
        with pytest.raises(UncoveredPoint, match=message) as raised:
            sampled_substitute(p, per_cell=1, seed=0)
        assert isinstance(raised.value, FinitaryError)

    def test_an_empty_support_names_its_own_point(self, monkeypatch):
        # the refused point is named by its own cell and suffix, wherever
        # it falls among the draws
        p = Manifold.from_relation(Relation(3, [(0, 1), (1, 2)])).to_simplicial()
        drawn = coarse._draws

        def empty(*args):
            out = list(drawn(*args))
            out[3][1] = (0, 0)
            return out

        monkeypatch.setattr(coarse, "_draws", empty)
        message = f"point {p.cell_labels[3]}#1 lies in no cover set"
        with pytest.raises(UncoveredPoint, match=message):
            sampled_substitute(p, per_cell=2, seed=0)

    def test_one_sample_per_cell_suffices(self):
        space = sampled_substitute(BOUNDARY_TRIANGLE, per_cell=1, seed=0)
        assert poset_isomorphic(simplicial_substitute(BOUNDARY_TRIANGLE), space) is not None

    def test_full_triangle_gives_face_poset(self):
        p = SimplicialComplex(3, [cell(0, 1, 2)])
        space = sampled_substitute(p, per_cell=5, seed=2)
        assert space.n == 7
        assert poset_isomorphic(simplicial_substitute(p), space) is not None


class TestCircle:
    def test_at_least_one_sample_required(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            circle_covering(STANDARD_CIRCLE_ARCS, 0)

    def test_standard_covering_has_six_classes_matching_the_triangle(self):
        cov = circle_covering(
            STANDARD_CIRCLE_ARCS, samples=512, extra_points=STANDARD_CIRCLE_EXTRA_POINTS
        )
        space, _ = trace_substitute(cov)
        assert space.n == 6
        assert set(cov.traces) == {0b001, 0b010, 0b100, 0b011, 0b110, 0b101}
        assert poset_isomorphic(space, generated_space(TRIANGLE)) is not None

    def test_uncorrected_middle_arc_fails_to_cover_pi(self):
        broken = (
            (Fr(-1, 2), Fr(1)),
            (Fr(1, 2), Fr(3, 4)),
            (Fr(-1), Fr(1, 4)),
        )
        with pytest.raises(NotACover) as err:
            circle_covering(broken, samples=64, extra_points=(Fr(1),))
        assert "1*pi" in str(err.value)

    def test_near_full_single_arc_gives_one_class(self):
        # one open arc missing only a point that is never sampled
        cov = circle_covering([(Fr(1, 3), Fr(1, 3))], samples=16)
        space, _ = trace_substitute(cov)
        assert space.n == 1

    def test_two_overlapping_arcs_give_three_classes(self):
        # brute force over the samples: the two geometric overlap regions
        # carry the same trace, so they merge into a single class
        cov = circle_covering([(Fr(-1, 2), Fr(1, 2)), (Fr(1, 4), Fr(7, 4))], samples=720)
        space, _ = trace_substitute(cov)
        assert sorted(map(members, set(cov.traces))) == [[0], [0, 1], [1]]
        assert space.n == 3

    def test_angles_are_exact_and_wrapped(self):
        cov = circle_covering(STANDARD_CIRCLE_ARCS, samples=8, extra_points=(Fr(9, 4),))
        assert "1/4" in cov.point_labels  # 9/4 pi wraps to 1/4 pi

    def test_point_labels_are_the_fraction_strings(self):
        extra = (Fr(-1, 3), Fr(0), Fr(1), Fr(7, 5), Fr(-13, 10))
        cov = circle_covering(STANDARD_CIRCLE_ARCS, samples=12, extra_points=extra)
        angles = {Fr(2 * k, 12) - 1 for k in range(1, 13)}
        angles |= {1 - (1 - a) % 2 for a in extra}  # wrapped into (-1, 1]
        assert cov.point_labels == tuple(map(str, sorted(angles)))
        assert {"-5/6", "-3/5", "0", "7/10", "1"} <= set(cov.point_labels)

    def test_extra_angles_merge_once_into_the_uniform_ones(self):
        # 0 and -3/2 (wrapped to 1/2) are uniform angles at 4 samples; 1/3
        # lies between two of them and is given twice
        extra = (Fr(0), Fr(1, 3), Fr(-3, 2), Fr(1, 3))
        cov = circle_covering(STANDARD_CIRCLE_ARCS, samples=4, extra_points=extra)
        assert cov.point_labels == ("-1/2", "0", "1/3", "1/2", "1")
        # 12 uniform angles hold all five, so they give every trace
        fine = circle_covering(STANDARD_CIRCLE_ARCS, samples=12)
        trace_at = dict(zip(fine.point_labels, fine.traces))
        assert cov.traces == tuple(trace_at[label] for label in cov.point_labels)


class TestCorrespondence:
    def test_triangle_bijection_is_identity_on_labels(self):
        report = verify_correspondence(TRIANGLE, per_cell=2, seed=4)
        assert report.ok
        for x, y in enumerate(report.gen_to_sym):
            assert report.generated.labels[x] == report.symbolic.labels[y]

    def test_singleton_manifold(self):
        m = Manifold(("1",), words=[(0,)])
        report = verify_correspondence(m, per_cell=1, seed=0)
        assert report.ok
        assert report.generated.n == report.sampled.n == 1

    def test_report_renders_with_verdict(self):
        report = verify_correspondence(TRIANGLE, per_cell=1, seed=0)
        text = report.render()
        assert "correspondence: VERIFIED" in text
        assert "generated ~ symbolic:" in text

    def test_certificates_are_what_the_search_returns(self):
        rng = random.Random(79)
        for _ in range(60):
            r = verify_correspondence(random_manifold(rng), per_cell=2, seed=1)
            assert r.gen_to_sym == poset_isomorphic(r.generated, r.symbolic)
            assert r.sym_to_sam == poset_isomorphic(r.symbolic, r.sampled)
            assert r.sym_to_sam == tuple(range(r.symbolic.n))

    def test_a_verified_report_renders_without_certificates(self, monkeypatch):
        # verify_correspondence builds each certificate once; render reads
        # the bijections and builds a certificate only to explain a failure
        calls = []
        real = coarse._label_map
        monkeypatch.setattr(coarse, "_label_map", lambda a, b: calls.append(1) or real(a, b))
        report = verify_correspondence(TRIANGLE, per_cell=1, seed=0)
        text = report.render()
        assert len(calls) == 1
        # a report holding the maps the search returns renders the same bytes
        searched = coarse.CorrespondenceReport(
            generated=report.generated,
            symbolic=report.symbolic,
            sampled=report.sampled,
            per_cell=1,
            seed=0,
            gen_to_sym=poset_isomorphic(report.generated, report.symbolic),
            sym_to_sam=poset_isomorphic(report.symbolic, report.sampled),
        )
        assert searched.render() == text
        assert len(calls) == 1

    def test_failed_certificate_is_the_verdict(self, monkeypatch):
        # relabel the symbolic substitute: the labels no longer match, the
        # order is unchanged, and no other bijection is searched for
        real = coarse.simplicial_substitute

        def renamed(p):
            s = real(p)
            return table_space([f"<{label}>" for label in s.labels], s.min_open)

        monkeypatch.setattr(coarse, "simplicial_substitute", renamed)
        report = verify_correspondence(TRIANGLE, per_cell=1, seed=0)
        assert report.ok is False
        assert report.gen_to_sym is None
        lines = report.render().splitlines()
        at = lines.index("generated ~ symbolic: NOT ISOMORPHIC")
        assert lines[at + 1] == "  points per grade: generated 3, 3; symbolic 3, 3"
        assert lines[-1] == "correspondence: FAILED"


def _routes(m, per_cell=1, seed=0):
    """The three spaces verify_correspondence compares, still unread."""
    p = m.to_simplicial()
    return p, generated_space(m), simplicial_substitute(p), sampled_substitute(p, per_cell, seed)


def _total_order(n):
    return Manifold.from_relation(Relation(n, [(i, j) for i in range(n) for j in range(i + 1, n)]))


def _certify(a, b, phi):
    """coarse._recipes_match, checked against the face-set rule: the two
    agree wherever the target's faces are facets, and every other target
    is left to the tables."""
    verdict = coarse._recipes_match(a, b, phi)
    facet_target = b._recipe[1] is complexes.facets
    assert verdict is (facet_target and certificate_reference.recipes_match(a, b, phi))
    return verdict


def _never_certifies_a_rejected_map(a, b):
    for phi in (coarse._label_map(a, b), coarse._identity(a, b)):
        if phi is not None and _certify(a, b, phi):
            assert coarse._unpreserved(a, b, phi) is None


def _copy(s):
    """s as the trace quotient of its minimal-open-set covering: the same
    labels and table, from the up-set of each point as its mask."""
    return table_space(s.labels, s.min_open)


def _one_sample_covering(p, traces):
    """The vertex-star covering of one sample per cell of p, the sample of
    each cell carrying the given trace."""
    labels = [f"{label}#0" for label in p.cell_labels]
    return Covering(p.labels, labels, traces)


class TestRecipeCertificates:
    """_recipes_match certifies on covers and traces; _unpreserved decides
    on the tables.  The first must agree with the second wherever
    verify_correspondence uses it, and never certify a map it rejects."""

    @staticmethod
    def _manifolds():
        rng = random.Random(2024)
        yield from (random_manifold(rng, max_vertices=6) for _ in range(200))
        for path in sorted(DATA.glob("*.manifold")) + sorted(DATA.glob("*.relation")):
            try:
                m = fio.parse_manifold(path.read_text(), source=path.name)
                m.to_simplicial()
            except FinitaryError:  # infinite or not antisymmetric: nothing certified
                continue
            yield m

    def test_agrees_with_the_tables_on_every_certified_pair(self):
        checked = 0
        for m in self._manifolds():
            _, gen, sym, sam = _routes(m, per_cell=2, seed=checked)
            for a, b, phi in (
                (gen, sym, coarse._label_map(gen, sym)),
                (sym, sam, coarse._identity(sym, sam)),
            ):
                assert _certify(a, b, phi) is True
                assert coarse._unpreserved(a, b, phi) is None
            checked += 1
        assert checked == 201  # every random manifold and the triangle

    def test_swapped_labels_are_never_certified_wrongly(self):
        rng = random.Random(7)
        swaps = 0
        for _ in range(200):
            m = random_manifold(rng, max_vertices=5)
            p = m.to_simplicial()
            grades = {}
            for s in p.simplices:
                grades.setdefault(s.bit_count(), []).append(s)
            pairs = [g for g in grades.values() if len(g) > 1]
            if not pairs:
                continue
            i, j = map(p.simplices.index, rng.sample(rng.choice(pairs), 2))
            relabel = list(p.cell_labels)
            relabel[i], relabel[j] = relabel[j], relabel[i]
            q = _restore(SimplicialComplex, (p.vertex_count, p.labels, p.simplices, tuple(relabel)))
            gen, swapped = generated_space(m), simplicial_substitute(q)
            for b in (swapped, _copy(swapped)):
                _never_certifies_a_rejected_map(gen, b)
                _never_certifies_a_rejected_map(b, gen)
            swaps += 1
        assert swaps > 100

    def test_a_missing_face_is_never_certified_wrongly(self):
        rng = random.Random(11)
        for _ in range(100):
            m = random_manifold(rng, max_vertices=5)
            words = list(m.words())
            faces = sorted({f for w in words for f in deletions(w)})
            if not faces:
                continue
            dropped = rng.choice(faces)
            holed = generated_space(
                Manifold(m.labels, words=[w for w in words if w != dropped])
            )
            # the same family as cell masks, under the same labels
            masks = [sum(1 << v for v in w) for w in words if w != dropped]
            traced = trace_substitute(Covering(m.labels, holed.labels, masks))[0]
            assert _certify(holed, traced, coarse._label_map(holed, traced)) is False
            assert _certify(traced, holed, coarse._label_map(traced, holed)) is False
            for a in (holed, _copy(holed)):
                for b in (traced, _copy(traced)):
                    _never_certifies_a_rejected_map(a, b)
                    _never_certifies_a_rejected_map(b, a)

    def test_missing_faces_are_not_read_as_no_faces(self):
        # the faces 12, 13 and 23 of 123 are all missing, so its present
        # faces match those of the vertex 3 in an antichain; but 1 <= 123
        # and 1 <= 3 do not agree
        holed = generated_space(Manifold(("1", "2", "3"), words=[(0,), (2,), (0, 1, 2)]))
        antichain = trace_substitute(Covering("abc", holed.labels, [1, 2, 4]))[0]
        phi = coarse._label_map(holed, antichain)
        assert _certify(holed, antichain, phi) is False
        assert coarse._unpreserved(holed, antichain, phi) is not None

    def test_a_replaced_trace_is_never_certified_wrongly(self):
        rng = random.Random(13)
        replaced = 0
        for _ in range(100):
            m = random_manifold(rng, max_vertices=5)
            p, _, sym, _ = _routes(m)
            full = (1 << p.vertex_count) - 1
            outside = [c for c in range(1, full + 1) if c not in set(p.simplices)]
            assert trace_substitute(_one_sample_covering(p, p.simplices))[0] == (
                sampled_substitute(p, per_cell=1, seed=0)
            )
            if not outside:
                continue
            traces = list(p.simplices)
            traces[rng.randrange(len(traces))] = rng.choice(outside)
            sam = trace_substitute(_one_sample_covering(p, traces))[0]
            assert _certify(sym, sam, coarse._identity(sym, sam)) is False
            for a in (sym, _copy(sym)):
                for b in (sam, _copy(sam)):
                    _never_certifies_a_rejected_map(a, b)
            replaced += 1
        assert replaced > 50

    def test_points_without_faces(self):
        # one-letter words have no deletions and single-vertex masks no
        # facets: spaces of them alone are certified, and a point without
        # faces mapped onto a mask with facets is not
        for rel in (Relation(1), Relation(3)):
            _, gen, sym, sam = _routes(Manifold.from_relation(rel))
            assert _certify(gen, sym, coarse._label_map(gen, sym)) is True
            assert _certify(sym, sam, coarse._identity(sym, sam)) is True
        gen = generated_space(Manifold.from_relation(Relation(3)))
        merged = trace_substitute(Covering("abc", gen.labels, [1, 2, 6]))[0]
        phi = coarse._label_map(gen, merged)
        assert _certify(gen, merged, phi) is False
        assert coarse._unpreserved(gen, merged, phi) is not None

    def test_a_copy_goes_to_the_tables(self):
        _, gen, sym, sam = _routes(TRIANGLE)
        for a, b in ((gen, sym), (sym, sam)):
            for x, y in ((_copy(a), b), (a, _copy(b))):
                phi = coarse._label_map(x, y) or coarse._identity(x, y)
                assert _certify(x, y, phi) is False
                assert coarse._certified(x, y, phi) == phi


class TestLazyTables:
    """The spaces the library builds fill min_open on its first read."""

    @pytest.mark.parametrize(
        "make", [lambda: TRIANGLE, lambda: _total_order(10)], ids=["triangle", "total-order-10"]
    )
    def test_verify_correspondence_reads_no_table(self, table_builds, make):
        report = verify_correspondence(make(), per_cell=1, seed=0)
        assert report.render().endswith("correspondence: VERIFIED")
        assert table_builds == {"generated": 0, "trace": 0}

    def test_each_table_is_built_once_on_first_read(self, table_builds):
        _, gen, sym, sam = _routes(TRIANGLE)
        for s in (gen, sym, sam, gen, sym, sam):
            assert s.min_open[0] == s.min_open[0]
        assert table_builds == {"generated": 1, "trace": 2}

    def test_a_copy_is_certified_on_the_tables(self, table_builds, monkeypatch):
        # the copy's masks are up-sets, not cells: its order agrees, but
        # neither certificate matches on the recipes, so both are decided
        # on the tables, the symbolic one read to make the copy, the
        # copy's, the generated and the sampled
        real = coarse.simplicial_substitute
        monkeypatch.setattr(coarse, "simplicial_substitute", lambda p: _copy(real(p)))
        report = verify_correspondence(TRIANGLE, per_cell=1, seed=0)
        assert report.ok
        assert table_builds == {"generated": 1, "trace": 3}


class TestAssembly:
    """verify_correspondence on a relation assembles its manifold, complex
    and sampled covering from checked parts: no constructor check reruns."""

    @pytest.fixture
    def validations(self, monkeypatch):
        counts = {}

        def counted(name, check):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return check(*args, **kwargs)

            return wrapper

        for owner, attr, name in (
            (manifolds, "word_validate", "word_validate"),
            (complexes, "_check", "_check"),
            (SimplicialComplex, "__init__", "SimplicialComplex"),
            (Covering, "__init__", "Covering"),
        ):
            counts[name] = 0
            monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
        return counts

    def test_verify_correspondence_revalidates_nothing(self, validations):
        rng = random.Random(5)
        for n in (1, 3, 5, 7):
            rel = random_antisymmetric_relation(rng, n)
            assert verify_correspondence(Manifold.from_relation(rel), per_cell=2, seed=n).ok
        assert validations == dict.fromkeys(validations, 0)

    def test_nor_does_the_cli_on_a_relation_file(self, validations, capsys, tmp_path):
        f = tmp_path / "total.relation"
        pairs = [f"{i} <= {j}" for i in range(1, 9) for j in range(i + 1, 9)]
        f.write_text("\n".join(["n 8", *pairs]) + "\n")
        assert main(["verify", "correspondence", str(f), "--per-cell", "1"]) == 0
        assert capsys.readouterr().out.endswith("correspondence: VERIFIED\n")
        assert validations == dict.fromkeys(validations, 0)

    def test_the_counters_see_a_public_construction(self, validations):
        m = Manifold(("a", "b"), words=[(0,), (1,), (0, 1)])
        verify_correspondence(m, per_cell=1)
        SimplicialComplex(2, [1, 2, 3])
        Covering(("A",), ("p",), [1])
        assert all(validations.values())


class TestKeptStructure:
    """A relation manifold keeps the passing structure report its network
    construction proves, so verifying it runs no structure scan; any other
    manifold runs the scans once and keeps their report."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        words = []
        real = manifolds.deletions

        def counted(w):
            words.append(w)
            return real(w)

        monkeypatch.setattr(manifolds, "deletions", counted)
        return words

    def test_verify_correspondence_scans_no_relation_manifold(self, scanned):
        rng = random.Random(5)
        for n in (1, 3, 5, 7):
            rel = random_antisymmetric_relation(rng, n)
            assert verify_correspondence(Manifold.from_relation(rel), per_cell=2, seed=n).ok
        assert scanned == []

    def test_nor_does_the_cli_on_a_relation_file(self, scanned, capsys, tmp_path):
        f = tmp_path / "total.relation"
        pairs = [f"{i} <= {j}" for i in range(1, 9) for j in range(i + 1, 9)]
        f.write_text("\n".join(["n 8", *pairs]) + "\n")
        assert main(["verify", "correspondence", str(f), "--per-cell", "3"]) == 0
        assert capsys.readouterr().out.endswith("correspondence: VERIFIED\n")
        assert scanned == []

    def test_explicit_words_are_scanned_once(self, scanned):
        m = Manifold(("a", "b"), words=[(0,), (1,), (0, 1)])
        assert verify_correspondence(m, per_cell=1).ok
        assert scanned == list(m.words())
        assert m.check_structure() is m.check_structure()
        m.to_simplicial()
        assert scanned == list(m.words())

    def test_a_failing_family_still_exits_two(self, scanned, capsys, tmp_path):
        bad = tmp_path / "bad.manifold"
        bad.write_text("vertices: 1, 2\nwords:\n1\n2\n1, 2\n2, 1\n")
        assert main(["verify", "correspondence", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error[StructureViolation]: manifold structure checks failed:\n"
            "hereditarity: ok\n"
            "fully-ordered: FAIL - 12: pair (1,2) is related both ways\n"
            "fully-ordered: FAIL - 21: pair (2,1) is related both ways\n"
            "uniqueness: FAIL - vertex set {12} carries several orderings: 12, 21\n"
            "singletons: ok\n"
        )
        assert len(scanned) == 4
