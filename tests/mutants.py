"""Mutation probe: one-line wrong edits of the package, each with the tier-1
test that must fail on it (DeMillo, Lipton & Sayward, IEEE Computer 1978).

    python3 tests/mutants.py

It copies ``src/`` and ``tests/`` to a temporary directory and checks that
the unmutated copy passes every listed test. Then it applies each
replacement alone, runs that mutant's test and prints ``killed`` or
``survived``. It exits 1 if a mutant survives, a replacement no longer
matches its file exactly once, or the unmutated copy fails. pytest does not
collect this file, as its name does not start with ``test_``; the probe
takes about three and a half minutes on two cores. ``tests/test_hygiene.py``
checks, without running the probe, that every replacement still matches once
and every test exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DISCOVERY, ESTIMATION = "src/missdag/discovery.py", "src/missdag/estimation.py"
LEGALITY = "tests/test_discovery.py::TestLegalMoves::test_search_moves_match_candidate_graphs"
HC_LIMITS = "tests/test_discovery.py::TestHillClimb::test_limits_out_of_range_refused"
EM_SETTINGS = "tests/test_estimation.py::TestEmFit::test_settings_out_of_range_refused"
HC_COMPLETE = ("tests/test_discovery.py::TestHcComplete::"
               "test_distinct_rows_search_as_every_imputed_row")
ITERATION_PASS = "tests/test_estimation.py::TestIterationPass::"

# (file, old text, new text, the test that must fail)
MUTANTS = [
    # the BIC penalty
    (ESTIMATION, "per_row = 0.5 * math.log(n_effective)", "per_row = math.log(n_effective)",
     "tests/test_estimation.py::TestWeightedCountsAndBic::test_bic_matches_scorer"),
    # IPW weights not normalised to mean one
    (ESTIMATION, "w = w * (np.count_nonzero(seen) / total)", "w = w * 1.0",
     "tests/test_estimation.py::TestIpwBicScorer::"
     "test_mean_one_normalisation_caps_total_evidence"),
    # an observed set's weights left as the product on the rows outside it
    (ESTIMATION, "w[~seen] = 0.0", "w = w",
     "tests/test_estimation.py::TestIpwBicScorer::"
     "test_weights_where_the_variable_is_missing_are_never_read"),
    # the log-sum-exp of a row that ties at its maximum counts the tie once
    (ESTIMATION, "m = ismax.sum(axis=1, keepdims=True, dtype=float)", "m = np.ones_like(amax)",
     "tests/test_estimation.py::TestEmFit::test_matches_row_by_row_em"),
    # the G-test's degrees of freedom
    ("src/missdag/stats.py", "df = (a_card - 1) * (b_card - 1)", "df = a_card * b_card - 1",
     "tests/test_discovery.py::TestGTest::test_independent_columns_give_large_p"),
    # structural EM on the completion block with every weight 1
    (DISCOVERY, "BicScorer(d.schema, *e_step,", "BicScorer(d.schema, e_step[0],",
     "tests/test_discovery.py::TestStructuralEm::"
     "test_searches_the_expected_counts_at_the_fitted_parameters"),
    # indicator detection without its Bonferroni correction
    (DISCOVERY, "a_corr = alpha / max(1, len(fully))", "a_corr = alpha",
     "tests/test_discovery.py::TestDetectIndicatorParents::"
     "test_tests_each_candidate_at_the_bonferroni_level"),
    # indicator detection at alpha / 2 with one fully observed candidate
    (DISCOVERY, "a_corr = alpha / max(1, len(fully))", "a_corr = alpha / max(2, len(fully))",
     "tests/test_discovery.py::TestDetectIndicatorParents::"
     "test_tests_each_candidate_at_the_bonferroni_level"),
    # evaluate's default replicate count
    (DISCOVERY, "B: int = 100, held_out_fraction", "B: int = 101, held_out_fraction",
     "tests/test_discovery.py::TestEvaluate::test_default_runs_100_replicates"),
    # a one-row dataset refused as if empty
    ("src/missdag/data.py", "if d.n < 1:", "if d.n < 2:",
     "tests/test_data.py::TestResampling::test_bootstrap_of_one_row_is_that_row"),
    # a rounding-sized gain taken as a better graph
    (DISCOVERY, "deltas[b].items() if delta > IMPROVEMENT_EPS", "deltas[b].items() if delta > 0",
     "tests/test_discovery.py::TestHillClimb::"
     "test_moves_only_on_a_gain_above_the_improvement_threshold"),
    # the consensus drops an edge whose frequency is the threshold
    (DISCOVERY, "if f >= threshold}", "if f > threshold}",
     "tests/test_discovery.py::TestBootstrapSem::test_consensus_keeps_an_edge_at_the_threshold"),
    # a reversal that leaves another path a ~> b
    (DISCOVERY, "reach[index[c]] >> index[b] & 1 for c in children[a] if c != b",
     "False for c in children[a]", LEGALITY),
    # forbidden adds listed
    (DISCOVERY, "and (x, b) not in kb.forbidden)])", ")])", LEGALITY),
    # the reversal of a required edge
    (DISCOVERY, "if a in deltas[b] and b in deltas[a]", "if b in deltas[a]", LEGALITY),
    # an add that closes a cycle
    (DISCOVERY, 'if op == "delete" or not reach[index[b]] >> index[x] & 1:', "if True:",
     LEGALITY),
    # CPT rows summed down the columns
    (ESTIMATION, "np.abs(table.sum(axis=1) - 1.0)", "np.abs(table.sum(axis=0) - 1.0)",
     "tests/test_estimation.py::TestParameterSet::test_row_sum_tolerance_is_that_of_allclose"),
    # a CPT checked by its cardinality alone
    (ESTIMATION, "if table.shape != shape:", "if table.shape[1] != shape[1]:",
     "tests/test_estimation.py::TestParameterSet::test_shape_must_match_parent_product"),
    # a parent configuration never seen gets a row that does not sum to 1
    (ESTIMATION, "np.full_like(counts, 1.0 / shape[1])", "np.full_like(counts, 1.0 / shape[0])",
     "tests/test_estimation.py::TestFittedCpts::test_every_fit_passes_check_graph"),
    # after an add a -> b, every vertex, not only those that reach a, reaches
    # all that b reaches
    (DISCOVERY, "[r | below if r & bit else r for r in reach]", "[r | below for r in reach]",
     "tests/test_discovery.py::TestHillClimb::test_equals_search_that_rescores_every_move"),
    # EM runs no E-step after its M-step: it tests and hands back the start's
    (ESTIMATION, "        params = _m_step(d, parents, shapes, codes, weights, pseudocount)\n"
     "        _, weights, _, row_ll = expand_completions(",
     "        params = _m_step(d, parents, shapes, codes, weights, pseudocount)\n"
     "        _ = expand_completions(",
     "tests/test_estimation.py::TestEmFit::test_matches_row_by_row_em"),
    # an IPW stratum parent with missing cells taken as observed
    (ESTIMATION, "if d.mask[:, jp].any():", "if False:",
     "tests/test_estimation.py::TestIpwWeights::"
     "test_parent_missing_where_target_missing_rejected"),
    # a stratum's observation rate counting the rows where the target is missing
    (ESTIMATION, "obs = np.bincount(code[observed], minlength=ncfg)",
     "obs = np.bincount(code, minlength=ncfg)",
     "tests/test_estimation.py::TestIpwWeights::test_matches_row_by_row_oracle"),
    # a reverse family (y | {child}) scored on the (child | {y}) table untransposed
    (ESTIMATION, "reused[1].append(table.T)", "reused[1].append(table)",
     "tests/test_estimation.py::TestBicScorer::"
     "test_reverse_families_score_as_each_family_alone"),
    # a reverse family read from the add table of a child that has parents
    (ESTIMATION, "for (y, _), t in zip(adds, tables) if not old else ():",
     "for (y, _), t in zip(adds, tables):",
     ITERATION_PASS + "test_only_a_child_without_parents_gives_reverse_tables"),
    # the stacks of a scoring pass never scored before they pass the cell budget
    (ESTIMATION, "if self.cells + cells > TABLE_CAP:", "if False:",
     ITERATION_PASS + "test_stacks_are_scored_before_they_pass_the_cell_budget"),
    # an IPW delete scored on its own observed set, not the old family's
    (ESTIMATION, "(obs | {x} if x in self.partial else obs,)",
     "(obs ^ {x} if x in self.partial else obs,)",
     ITERATION_PASS + "test_an_ipw_delete_is_scored_on_the_old_familys_observed_set"),
    # a CSV's byte-order mark read into the first column's name
    ("src/missdag/data.py", 'newline="", encoding="utf-8-sig") as fh:',
     'newline="", encoding="utf-8") as fh:',
     "tests/test_data.py::TestCsv::test_byte_order_mark_is_not_read_into_the_first_name"),
    # a first name that starts with a byte-order mark written without a second
    ("src/missdag/data.py", 'sig = "-sig" if', 'sig = "" if',
     "tests/test_data.py::TestCsv::"
     "test_first_name_that_starts_with_a_byte_order_mark_reads_back"),
    # dataset_n dropped unread when the dataset is a CSV
    ("src/missdag/cli.py", 'if "dataset_n" in config:', "if False:",
     "tests/test_cli.py::TestExitCodes::test_usage_error_on_dataset_n_with_a_csv"),
    # a partially observed variable without IPW weights weighs zero, not one
    (ESTIMATION, "self.var_weights.get(v, 1.0)", "self.var_weights.get(v, 0.0)",
     "tests/test_estimation.py::TestIpwBicScorer::test_variable_without_weights_weighs_one"),
    # a JSON input's byte-order mark read as text
    ("src/missdag/cli.py", 'return p.read_text(encoding="utf-8-sig")',
     'return p.read_text(encoding="utf-8")',
     "tests/test_cli.py::TestDiscover::test_json_input_with_a_byte_order_mark_is_read"),
    # an amputation driver listed twice counted once per listing
    ("src/missdag/data.py", "if len(set(self.drivers)) != len(self.drivers):", "if False:",
     "tests/test_data.py::TestAmputation::test_malformed_entry_in_json_rejected"),
    # an indicator name left free for a later indicator to take
    ("src/missdag/graphs.py", "        taken.add(r)\n", "",
     "tests/test_graphs.py::TestClassifyMechanism::"
     "test_indicator_name_a_vertex_holds_is_prefixed_again"),
    # a CPT's states checked by their number alone
    (ESTIMATION, "if params.states(v) != d.variable(v).states:",
     "if len(params.states(v)) != len(d.variable(v).states):",
     "tests/test_estimation.py::TestLogLikelihood::"
     "test_cpt_states_must_be_the_datasets_in_order"),
    # a CPT row that sums to 1 through a negative cell
    (ESTIMATION, "if (table < 0).any():", "if False:",
     "tests/test_estimation.py::TestParameterSet::test_negative_cell_refused"),
    # a parameter file given with the bundled model ignored
    ("src/missdag/cli.py", "if args.params:", "if False:",
     "tests/test_cli.py::TestAmputeAndSimulate::test_simulate_ec_demo_refuses_params"),
    # IPW weights of another shape broadcast over the rows
    (ESTIMATION, "if w.shape != (d.n,):", "if False:",
     "tests/test_estimation.py::TestIpwBicScorer::"
     "test_weights_for_an_unknown_variable_or_of_another_shape_refused"),
    # a boolean selection read as row numbers
    ("src/missdag/data.py", "self.rows[idx] if idx.size",
     "self.rows[np.asarray(idx, dtype=np.intp)] if idx.size",
     "tests/test_data.py::TestDataset::"
     "test_take_of_a_boolean_selection_returns_the_selected_rows"),
    # a number's rule never applied, only its type
    ("src/missdag/errors.py", "if ok is not None and not ok(value):", "if False:",
     "tests/test_cli.py::test_a_number_is_refused_by_its_type_then_its_rule"),
    # hill climbing's limits taken unchecked
    (DISCOVERY, 'max_iter, int, "max_iter", "be >= 0", lambda v: v >= 0)',
     'max_iter, int, "max_iter")', HC_LIMITS),
    (DISCOVERY, 'max_parents, int, "max_parents", "be >= 0", lambda v: v >= 0)',
     'max_parents, int, "max_parents")', HC_LIMITS),
    # EM's settings taken unchecked
    (ESTIMATION, 'max_iter, int, "max_iter", "be >= 0", lambda v: v >= 0)',
     'max_iter, int, "max_iter")', EM_SETTINGS),
    (ESTIMATION, 'tol = checked_number(tol, float, "tol", *_FINITE_AT_LEAST_0)',
     'tol = checked_number(tol, float, "tol")', EM_SETTINGS),
    (ESTIMATION, '"pseudocount", *_FINITE_AT_LEAST_0)\n    max_iter',
     '"pseudocount")\n    max_iter', EM_SETTINGS),
    # fit_mle's and the scorers' pseudocount taken unchecked
    (ESTIMATION, '"pseudocount", *_FINITE_AT_LEAST_0)\n    if d.mask.any():',
     '"pseudocount")\n    if d.mask.any():',
     "tests/test_estimation.py::TestFitMle::test_pseudocount_out_of_range_refused"),
    (ESTIMATION, '"pseudocount",\n                                          *_FINITE_AT_LEAST_0)',
     '"pseudocount")',
     "tests/test_estimation.py::TestBicScorer::test_pseudocount_out_of_range_refused"),
    # float rows cast to int16, which truncates them
    ("src/missdag/data.py", 'if rows.size and rows.dtype.kind not in "iu":', "if False:",
     "tests/test_data.py::TestDataset::test_rows_that_are_not_integers_refused"),
    # the state range checked after the int16 cast, which wraps 65537 to 1
    ("src/missdag/data.py", "rows = np.array(rows)\n",
     "rows = np.array(rows, dtype=np.int16)\n",
     "tests/test_data.py::TestDataset::test_state_range_is_checked_before_the_cast"),
    # a selection handed to numpy unchecked: -1 wraps to the last row
    ("src/missdag/data.py", "        if not ok:\n", "        if False:\n",
     "tests/test_data.py::TestDataset::test_take_refuses_a_selection_that_is_not_rows"),
    # an amputation spec's seed checked by the JSON reader alone
    ("src/missdag/data.py", '"be >= 0", lambda v: v >= 0))', '"be >= 0", lambda v: True))',
     "tests/test_data.py::TestAmputation::test_spec_seed_is_checked_however_the_spec_is_built"),
    # a resampling seed handed to numpy unchecked
    ("src/missdag/data.py", "if not isinstance(seed, np.random.SeedSequence):", "if False:",
     "tests/test_data.py::TestResampling::test_resampling_seed_must_be_an_int_at_least_0"),
    # IPW weights for a fully observed variable accepted and never read
    (ESTIMATION, "if k not in self.partial:", "if False:",
     "tests/test_estimation.py::TestIpwBicScorer::"
     "test_weights_for_a_fully_observed_variable_refused"),
    # a knowledge entry that is not a pair of names read as one
    (DISCOVERY, 'raise ConfigError(f"knowledge field {key!r} must list [parent, child] pairs")',
     "pass", "tests/test_discovery.py::TestKnowledgeBase::"
     "test_an_entry_that_is_not_a_pair_of_names_refused"),
    # the run settings' type checks
    (DISCOVERY, 'B = checked_number(B, int, "B", "be >= 1", lambda v: v >= 1)', "pass",
     "tests/test_discovery.py::TestBootstrapSem::test_run_settings_of_the_wrong_type_refused"),
    # BIC weights that are negative, not finite or of another shape accepted
    (ESTIMATION, "if weights is not None and (self.weights.shape",
     "if False and (self.weights.shape", "tests/test_estimation.py::TestBicScorer::"
     "test_weights_that_are_not_one_finite_count_per_row_refused"),
    # hc-complete's penalty over its distinct rows, not every row
    (DISCOVERY, "pseudocount=opts.score_pseudocount, n_effective=dc.n)",
     "pseudocount=opts.score_pseudocount)", HC_COMPLETE),
    # hc-complete counting each distinct row once, unweighted
    (DISCOVERY, "weights=counts,", "weights=counts * 0 + 1,", HC_COMPLETE),
    # the shifted code of an add looked up by the child's cardinality
    (ESTIMATION, "shift = shifted.get(card_y)", "shift = shifted.get(card)", HC_COMPLETE),
    # an infinite BIC sample size accepted, which scores every family -inf
    (ESTIMATION, "if not 0 < self.n_effective < math.inf:", "if not 0 < self.n_effective:",
     "tests/test_estimation.py::TestBicScorer::"
     "test_sample_size_that_is_not_a_finite_positive_number_refused"),
    # IPW weights that are negative or not finite where observed accepted
    (ESTIMATION, "if not ((0 <= w) & (w < math.inf))[~d.mask[:, j]].all():",
     "if False:", "tests/test_estimation.py::TestIpwBicScorer::"
     "test_weights_that_are_not_finite_and_at_least_0_where_observed_refused"),
    # IPW weights checked where their variable is missing too
    (ESTIMATION, "(w < math.inf))[~d.mask[:, j]].all():", "(w < math.inf)).all():",
     "tests/test_estimation.py::TestIpwBicScorer::"
     "test_weights_where_the_variable_is_missing_are_never_read"),
    # rows of no columns viewed as bytes
    ("src/missdag/data.py", "    if not width:", "    if False:",
     "tests/test_data.py::TestUniqueRows::test_no_rows_no_columns_and_all_rows_equal"),
    # BIC rows with a state index out of range accepted
    (ESTIMATION, "if bad_cols.any():", "if False:",
     "tests/test_estimation.py::TestBicScorer::test_rows_out_of_range_refused"),
    # a CSV reader that stops at a ragged row, raising it at once
    ("src/missdag/data.py", "collections.deque(reader, maxlen=0)", "pass",
     "tests/test_data.py::TestCsv::"
     "test_decode_error_in_a_later_chunk_reported_before_a_ragged_row"),
    # the column going over MAX_STATES last reported, not the leftmost
    ("src/missdag/data.py",
     "over = c  # the columns right of c no longer matter\n                break", "over = c",
     "tests/test_data.py::TestCsv::test_leftmost_column_with_too_many_states_reported"),
    # a column's states restarted in each chunk
    ("src/missdag/data.py", "lookup = lookups[c]",
     "lookup = lookups[c] = dict.fromkeys(MISSING_TOKENS, MISSING)",
     "tests/test_data.py::TestCsv::test_read_matches_cell_by_cell_reader_in_small_chunks"),
    # a chunk of CSV lines that repeats the next chunk's first row
    ("src/missdag/data.py", "rows = d.rows[start:start + step]",
     "rows = d.rows[start:start + step + 1]",
     "tests/test_data.py::TestCsv::test_write_matches_whole_file_writer"),
]


def passes(copy: Path, tests) -> bool:
    """Whether the copy passes every test of ``tests``."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not passes(copy, sorted({test for *_, test in MUTANTS})):
            print("the unmutated copy fails a listed test")
            return 1
        failed = 0
        for path, old, new, test in MUTANTS:
            target = copy / path
            source = target.read_text(encoding="utf-8")
            if source.count(old) != 1:
                verdict = f"stale ({source.count(old)} matches)"
            else:
                target.write_text(source.replace(old, new), encoding="utf-8")
                verdict = "survived" if passes(copy, [test]) else "killed"
                target.write_text(source, encoding="utf-8")
            failed += verdict != "killed"
            print(f"{verdict:9} {path}: {old!r} -> {new!r}\n          {test}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
