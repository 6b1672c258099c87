import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsmdp.coefficients import classify, convergence_trace
from lsmdp.exact_solver import evaluate_nonstationary, freeze
from lsmdp.objectives import (CnfInstance, DimacsParseError, cnf_objective,
                              cnf_to_dimacs, load_dimacs, make_leading_ones,
                              make_nk_landscape, make_onemax, make_trap,
                              parse_objective)
from lsmdp.policies import HillClimbing
from lsmdp.search_space import HammingNeighborhood, LocalSearchMdp, ResourceLimitError
from lsmdp.simulator import run_batch, simulate_batch
from lsmdp.streams import Uniforms


@pytest.mark.parametrize("build", [
    lambda: make_onemax(True),
    lambda: make_leading_ones(True),
    lambda: make_trap(4, True),
    lambda: make_trap(True, True),
    lambda: make_nk_landscape(4, False, 1),
    lambda: make_nk_landscape(True, 0, 1),
    lambda: HammingNeighborhood(True),
    lambda: CnfInstance(True, ((1,),)),
], ids=["onemax", "leading_ones", "trap-k", "trap-n", "nk-k", "nk-n", "hamming", "cnf"])
def test_a_bool_is_no_size(build):
    # True == 1 and False == 0, but a size is an int, not a flag.
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("run, match", [
    (lambda mdp: classify(HillClimbing(), mdp, horizon=True), "horizon must be an int"),
    (lambda mdp: freeze(HillClimbing(), mdp, True), "time index must be an int"),
    (lambda mdp: evaluate_nonstationary(HillClimbing(), mdp, True, 0.9), "horizon must be an int"),
    (lambda mdp: convergence_trace(HillClimbing(), mdp, 0, True, Uniforms(0)),
     "t_max must be an int"),
    (lambda mdp: simulate_batch(HillClimbing(), mdp, 0, 3, True, 0), "num_trajectories must be an"),
    (lambda mdp: simulate_batch(HillClimbing(), mdp, 0, True, 2, 0), "horizon must be an int"),
    (lambda mdp: run_batch(HillClimbing(), mdp, 0, 3, 2, 0, bucket_width=True),
     "bucket width must be an int"),
    (lambda mdp: HillClimbing().action_distribution(mdp, 0, True), "time index must be an"),
    (lambda mdp: make_nk_landscape(4, 1, True), "seed=True"),
], ids=["classify-horizon", "freeze-time", "nonstationary-horizon", "trace-t_max",
        "batch-seeds", "batch-horizon", "run_batch-bucket_width", "action-time", "nk-seed"])
def test_a_bool_is_no_count(run, match):
    # A count, a time or a seed is an int, not a flag: refused with ValueError
    # before any work, where True passed as 1.
    with pytest.raises(ValueError, match=match):
        run(LocalSearchMdp(make_onemax(4)))


class TestOneMax:
    def test_counts_ones(self):
        assert make_onemax(3)(0b011) == 2.0

    def test_zero_state(self):
        assert make_onemax(3)(0b000) == 0.0

    def test_all_ones_is_known_optimum(self):
        obj = make_onemax(5)
        assert obj(0b11111) == 5.0 == obj.known_optimum

    @pytest.mark.parametrize("n", [0, -1, 64, "3"])
    def test_rejects_bad_length(self, n):
        with pytest.raises(ValueError):
            make_onemax(n)


class TestLeadingOnes:
    def test_prefix_run(self):
        assert make_leading_ones(4)(0b1101) == 2.0

    def test_broken_prefix(self):
        assert make_leading_ones(4)(0b0111) == 0.0

    def test_full_run_is_optimum(self):
        obj = make_leading_ones(4)
        assert obj(0b1111) == 4.0 == obj.known_optimum


class TestTrap:
    def test_single_block_closed_form(self):
        obj = make_trap(4, 4)
        for x in range(16):
            u = x.bit_count()
            assert obj(x) == (4.0 if u == 4 else 3.0 - u)
        assert obj(0b0000) == 3.0
        assert obj(0b1111) == 4.0

    def test_two_blocks_sum(self):
        obj = make_trap(4, 2)
        # low block 11 scores 2, high block 01 has one one -> scores 0
        assert obj(0b0111) == 2.0

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError):
            make_trap(4, 3)


class TestNkLandscape:
    def test_deterministic_for_seed(self):
        a = make_nk_landscape(6, 2, 42)
        b = make_nk_landscape(6, 2, 42)
        assert a(0b101010) == a(0b101010) == b(0b101010)

    def test_different_seed_differs(self):
        a = make_nk_landscape(6, 2, 42)
        b = make_nk_landscape(6, 2, 43)
        assert a(0b101010) != b(0b101010)

    def test_k0_contributions_are_separable(self):
        obj = make_nk_landscape(8, 0, seed=3)
        for i in range(8):
            base = obj(0) - obj(1 << i)
            for x in (0b10101010, 0b11110000, 0b11111111, 0b00000001):
                lo = x & ~(1 << i)
                hi = x | (1 << i)
                assert math.isclose(obj(lo) - obj(hi), base, abs_tol=1e-12)

    def test_rejects_bad_epistasis(self):
        with pytest.raises(ValueError):
            make_nk_landscape(4, 4, 0)


@pytest.mark.parametrize("obj", [make_onemax(10), make_leading_ones(10), make_trap(10, 5),
                                 make_onemax(16), make_leading_ones(16), make_trap(16, 4)])
def test_exhaustive_maximum_matches_known_optimum(obj):
    assert max(obj(x) for x in range(1 << obj.n)) == obj.known_optimum


def _write_cnf(tmp_path, text, name="f.cnf"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDimacs:
    def test_hand_evaluated_two_clause_file(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 2\n1 2 0\n-1 0\n")
        obj = cnf_objective(load_dimacs(path))
        # bit 0 holds variable 1
        assert obj(0b01) == 1.0
        assert obj(0b10) == 2.0
        assert obj(0b00) == 1.0
        assert obj(0b11) == 1.0

    def test_comments_and_multiline_clauses(self, tmp_path):
        text = "c a comment\n\np cnf 3 2\nc inner comment\n1 2\n3 0\n-2 0\n"
        instance = load_dimacs(_write_cnf(tmp_path, text))
        assert instance.num_vars == 3
        assert instance.clauses == ((1, 2, 3), (-2,))

    def test_clause_count_mismatch_names_line(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 2\n1 0\n2 0\n-1 0\n")
        with pytest.raises(DimacsParseError) as err:
            load_dimacs(path)
        assert err.value.line == 4
        assert "line 4" in str(err.value)

    def test_too_few_clauses(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 3\n1 0\n2 0\n")
        with pytest.raises(DimacsParseError):
            load_dimacs(path)

    def test_literal_out_of_range(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 1\n3 0\n")
        with pytest.raises(DimacsParseError) as err:
            load_dimacs(path)
        assert err.value.line == 2

    def test_empty_clause_rejected(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 1\n0\n")
        with pytest.raises(DimacsParseError):
            load_dimacs(path)

    def test_missing_header(self, tmp_path):
        path = _write_cnf(tmp_path, "c only a comment\n")
        with pytest.raises(DimacsParseError):
            load_dimacs(path)

    def test_clause_before_header(self, tmp_path):
        path = _write_cnf(tmp_path, "1 2 0\np cnf 2 1\n")
        with pytest.raises(DimacsParseError) as err:
            load_dimacs(path)
        assert err.value.line == 1

    def test_unterminated_clause(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 1\n1 2\n")
        with pytest.raises(DimacsParseError):
            load_dimacs(path)

    def test_round_trip(self, tmp_path):
        text = "c x\np cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n"
        instance = load_dimacs(_write_cnf(tmp_path, text))
        again = load_dimacs(_write_cnf(tmp_path, cnf_to_dimacs(instance), name="g.cnf"))
        assert again == instance

    def test_satisfied_count_upper_bound(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n")
        obj = cnf_objective(load_dimacs(path))
        values = [obj(x) for x in range(8)]
        assert all(v <= 3 for v in values)
        assert max(values) == 3.0  # x = 011 satisfies everything

    def test_instance_invariants(self):
        with pytest.raises(ValueError):
            CnfInstance(0, ())
        with pytest.raises(ValueError):
            CnfInstance(2, ((),))
        with pytest.raises(ValueError):
            CnfInstance(2, ((3,),))


class TestDescriptors:
    def test_onemax(self):
        obj = parse_objective("onemax:n=10")
        assert obj.n == 10 and obj(0b1111111111) == 10.0

    def test_nk(self):
        obj = parse_objective("nk:n=12,k=3,seed=7")
        assert obj.n == 12
        assert obj(5) == make_nk_landscape(12, 3, 7)(5)

    def test_maxsat(self, tmp_path):
        path = _write_cnf(tmp_path, "p cnf 2 2\n1 2 0\n-1 0\n")
        obj = parse_objective(f"maxsat:path={path}")
        assert obj(0b10) == 2.0

    @pytest.mark.parametrize("bad", ["nope:n=3", "onemax", "onemax:n=x", "trap:n=8",
                                     "onemax:n=10,k=3", "onemax:n=10,n=12",
                                     "nk:n=12,k=3,seed=7,sed=8", "trap:n=8,k=4,seed=1",
                                     "maxsat:path=f.cnf,x=1", "onemax:n=3,", "onemax:=3"])
    def test_bad_descriptors_name_the_input(self, bad):
        with pytest.raises(ValueError) as err:
            parse_objective(bad)
        assert bad.split(":")[0] in str(err.value)

    @pytest.mark.parametrize("descriptor", ["nk:n=12,k=3,seed=7", "trap:n=8,k=4", "onemax:n=7",
                                            "leading_ones:n=6", "leadingones:n=6"])
    def test_keys_in_any_order_build_one_objective(self, descriptor):
        head, _, argstr = descriptor.partition(":")
        first = parse_objective(descriptor)
        states = range(0, 1 << first.n, 37)
        for order in itertools.permutations(argstr.split(",")):
            objective = parse_objective(f"{head}:{','.join(order)}")
            assert objective.name == first.name
            assert [objective(s) for s in states] == [first(s) for s in states]

    def test_nk_tables_past_the_budget_are_refused_before_drawing(self):
        # 40 tables of 2**31 doubles would take 640 GiB.
        with pytest.raises(ResourceLimitError, match="budget"):
            make_nk_landscape(40, 30, 1)


@given(st.integers(1, 16), st.data())
def test_onemax_matches_popcount_everywhere(n, data):
    x = data.draw(st.integers(0, (1 << n) - 1))
    assert make_onemax(n)(x) == float(bin(x).count("1"))
