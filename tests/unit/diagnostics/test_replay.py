"""Differential replay and ADDG dependency paths."""

from repro.addg import build_addg
from repro.diagnostics import dependency_path, divergent_cells, replay_divergence
from repro.analysis import ProgramGeometry
from repro.lang import parse_program

ORIGINAL = """
#define N 6
void f(int A[N], int C[N])
{
  int i;
  int tmp[N];
  for (i = 0; i < N; i++) {
s1: tmp[i] = A[i] * 2;
  }
  for (i = 0; i < N; i++) {
s2: C[i] = tmp[i] + 1;
  }
}
"""

# Same computation, fused (genuinely equivalent).
EQUIVALENT = """
#define N 6
void f(int A[N], int C[N])
{
  int i;
  for (i = 0; i < N; i++) {
t1: C[i] = A[i] * 2 + 1;
  }
}
"""

# Off-by-one constant: every cell diverges.
BUGGY = """
#define N 6
void f(int A[N], int C[N])
{
  int i;
  for (i = 0; i < N; i++) {
t1: C[i] = A[i] * 2 + 2;
  }
}
"""

# Reads past the defined range: crashes at runtime on the last iteration.
CRASHING = """
#define N 6
void f(int A[N], int C[N])
{
  int i;
  int tmp[N];
  for (i = 0; i < N; i++) {
t1: tmp[i] = A[i] * 2;
  }
  for (i = 0; i < N; i++) {
t2: C[i] = tmp[i + 1] + 1;
  }
}
"""


class TestReplayDivergence:
    def test_equivalent_pair_does_not_diverge(self):
        result, diffs = replay_divergence(
            parse_program(ORIGINAL), parse_program(EQUIVALENT), seeds=[0, 1, 2]
        )
        assert not result.diverged
        assert diffs == {}

    def test_buggy_pair_diverges_with_writer_labels(self):
        result, diffs = replay_divergence(
            parse_program(ORIGINAL), parse_program(BUGGY), seeds=[0]
        )
        assert result.diverged
        assert result.divergence_count == 6
        cell = result.first_divergence
        assert cell.array == "C" and cell.index == (0,)
        assert cell.original_statement == "s2"
        assert cell.transformed_statement == "t1"
        assert cell.transformed_value == cell.original_value + 1
        assert (0,) in diffs["C"]

    def test_crashing_transformed_counts_as_divergence(self):
        result, _diffs = replay_divergence(
            parse_program(ORIGINAL), parse_program(CRASHING), seeds=[0]
        )
        assert result.diverged
        assert result.transformed_error is not None
        assert result.transformed_error_statement == "t2"

    def test_crashing_original_is_inconclusive(self):
        result, _diffs = replay_divergence(
            parse_program(CRASHING), parse_program(ORIGINAL), seeds=[0, 1]
        )
        assert not result.diverged
        assert result.original_error is not None
        assert result.original_error_statement == "t2"

    def test_early_original_crash_survives_a_clean_later_seed(self):
        # The original divides by (A[i] + 64): under replay's -64..64 input
        # range it crashes on seed 0 (some A[i] == -64) but runs cleanly on
        # seed 1.  With no divergence found, the returned result must still
        # carry the seed-0 failure so the report can flag the sweep as
        # partly inconclusive instead of silently saying "no divergence".
        source = """
        #define N 6
        void f(int A[N], int C[N])
        {
          int i;
          for (i = 0; i < N; i++) {
        u1: C[i] = A[i] / (A[i] + 64);
          }
        }
        """
        program = parse_program(source)
        result, diffs = replay_divergence(program, program, seeds=[0, 1])
        assert not result.diverged and diffs == {}
        assert result.seed == 0
        assert result.original_error is not None
        assert result.original_error_statement == "u1"

    def test_seed_of_the_distinguishing_run_is_reported(self):
        result, _ = replay_divergence(
            parse_program(ORIGINAL), parse_program(BUGGY), seeds=[7, 8]
        )
        assert result.seed == 7


class TestDivergentCells:
    def test_missing_cells_are_diverging(self):
        diffs = divergent_cells({"C": {(0,): 1, (1,): 2}}, {"C": {(0,): 1}})
        assert diffs == {"C": {(1,): (2, None)}}

    def test_equal_environments_have_no_diffs(self):
        assert divergent_cells({"C": {(0,): 1}}, {"C": {(0,): 1}}) == {}

    def test_arrays_on_one_side_only(self):
        diffs = divergent_cells({"C": {(0,): 1}}, {})
        assert diffs == {"C": {(0,): (1, None)}}


class TestDependencyPath:
    def test_walks_through_the_intermediate_to_the_input(self):
        addg = build_addg(ProgramGeometry(parse_program(ORIGINAL)))
        path = dependency_path(addg, "C", (3,))
        assert path == ("C[3]", "s2", "tmp[3]", "s1", "A[3]")

    def test_stops_at_the_input_array(self):
        addg = build_addg(ProgramGeometry(parse_program(EQUIVALENT)))
        path = dependency_path(addg, "C", (0,))
        assert path == ("C[0]", "t1", "A[0]")

    def test_cell_outside_every_domain_has_a_bare_path(self):
        addg = build_addg(ProgramGeometry(parse_program(ORIGINAL)))
        assert dependency_path(addg, "C", (99,)) == ("C[99]",)
