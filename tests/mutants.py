"""Mutation checks: each row of MUTANTS changes one piece of text in one
source file and names the tests that must fail when it does.

    python tests/mutants.py            # every row
    python tests/mutants.py ROW [ROW ...]  # only the rows with these ids

For each row, `src/` is copied into a temporary directory, the row's old
text is replaced by its new text in the copy, and the row's tests run on
the copy in a fresh pytest process, with `PYTHONPATH` pointing at it. A row
is caught when each named test has an item that fails or errors; it is
missed when one of them passes in full, when pytest exits with anything
but "tests failed", or when the run takes longer than `TIMEOUT` seconds.
First, a control row that replaces the first chosen row's old text by
itself, and runs that row's tests, must be missed, so a runner that
reports every row caught fails. Exits 0 when the control is missed and
every chosen row is caught, 1 when not, and 2, running nothing, when a
named row is not in the table. A row takes one pytest process, so naming
the rows a change touches checks them in seconds, where the whole table
takes minutes.

Each row starts a pytest process, so this is not part of the test suite;
`tests/test_mutant_table.py` checks only that each row's old text occurs
exactly once in its file, so a row cannot go stale unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds for one row's tests, which cuts off a mutant that never ends
SCM = "src/blamescope/scm.py"
IO = "src/blamescope/io.py"
CLI = "src/blamescope/cli.py"
BLAME = "src/blamescope/blame.py"
RECORD = "src/blamescope/record.py"
HITL = "src/blamescope/hitl.py"
METRICS = "src/blamescope/metrics.py"
SYNTHETIC = "src/blamescope/synthetic.py"
MEMORY = "tests/test_scm.py::test_mc_memory_skipping_column_holds_one_refill"
SKIPPING = "tests/test_scm.py::test_mc_skipping_columns_match_one_stream"
CDF_STEPS = "tests/test_scm.py::test_draw_at_cdf_steps"
ABDUCT_UNDERFLOW = "tests/test_scm.py::test_abduct_underflowing_observation"
ORDINAL = "tests/test_metrics.py::test_ordinal_confusion_refuses_bad_counts"
BINARY = "tests/test_metrics.py::test_binary_counts_refuse_bad_counts"
UNDERFLOW = "tests/test_cli.py::test_figure_below_the_normal_float_range_is_refused"
CASELOG = "tests/test_hitl.py::test_caselog_refuses_a_bad_log"
# A bad action in a model file, refused by each command that loads it.
BAD_ACTION = "tests/test_cli.py::test_bad_input_file[scm_action_{}{}]"
EVERY_COMMAND = ("", "_prob", "_counterfactual", "_blame")
TWICE = [
    *(BAD_ACTION.format("overrides_twice", suffix) for suffix in EVERY_COMMAND),
    "tests/test_io.py::test_load_scm_action_overrides_twice",
]

# (id, file, old text, new text, tests that must fail)
MUTANTS = [
    # The rational engine reads each prior exactly; one ulp off shows.
    ("prior_one_ulp", SCM,
     "unary = {ex.id: np.array([weight(p) for p in ex.dist], dtype)",
     "unary = {ex.id: np.array([weight(np.nextafter(p, 2)) for p in ex.dist], dtype)",
     ["tests/test_scm.py::test_rational_engine_equals_brute_force"]),
    ("no_probability_clamp", SCM,
     'return min(_query(scm, ((phi, 1.0),), "outcome")[0], 1.0)',
     'return _query(scm, ((phi, 1.0),), "outcome")[0]',
     ["tests/test_scm.py::test_probability_of_a_near_sure_outcome_is_at_most_one"]),
    ("draw_search_left", SCM,
     'return cdf.searchsorted(u, side="right")',
     'return cdf.searchsorted(u, side="left")',
     [CDF_STEPS]),
    ("draw_first_compare_strict", SCM,
     "codes = np.greater_equal(u, cdf[0])",
     "codes = np.greater(u, cdf[0])",
     [CDF_STEPS]),
    ("draw_loop_compare_strict", SCM,
     "np.greater_equal(u, step, out=reached)",
     "np.greater(u, step, out=reached)",
     [CDF_STEPS]),
    ("fill_keeps_its_list", SCM,
     "    while exceptions:\n        at, codes = exceptions.pop()",
     "    for at, codes in exceptions:",
     [MEMORY]),
    ("skip_rule_inclusive", SCM,
     "if rate > _SKIP_MAX:",
     "if rate >= _SKIP_MAX:",
     ["tests/test_scm.py::test_skip_rule_at_its_bound"]),
    ("compare_stream_advanced_by_block", SCM,
     ".advance(j * samples)",
     ".advance(j * _BLOCK)",
     ["tests/test_scm.py::test_mc_blocks_match_one_stream"]),
    ("skip_stream_jumped_once_more", SCM,
     "np.random.PCG64(seed).jumped(j + 1)",
     "np.random.PCG64(seed).jumped(j + 2)",
     [SKIPPING, "tests/test_scm.py::test_skip_rule_at_its_bound"]),
    ("other_codes_shifted", SCM,
     "others = np.delete(np.arange(len(p)), mode)",
     "others = np.delete(np.arange(len(p)), 0)",
     [SKIPPING]),
    ("other_values_cdf_not_renormalised", SCM,
     "cdf = rest / rest[-1] if rate else rest",
     "cdf = rest",
     [SKIPPING]),
    ("exception_one_sample_early", SCM,
     "exceptions.append((pos[i:k],",
     "exceptions.append((pos[i:k] - 1,",
     [SKIPPING]),
    ("read_index_not_moved", SCM,
     "            if k < len(pos):\n                i = k\n",
     "            if k < len(pos):\n",
     [SKIPPING]),
    ("read_index_not_reset_after_refill", SCM,
     "            i = 0\n        yield _fill(",
     "        yield _fill(",
     [SKIPPING]),
    ("first_position_off_by_one", SCM,
     "last = pos[-1] if len(pos) else -1",
     "last = pos[-1] if len(pos) else 0",
     [SKIPPING]),
    ("no_gap_clamp", SCM,
     "pos = np.minimum(rng.geometric(rate, _REFILL), MAX_SAMPLES + 1).cumsum()",
     "pos = rng.geometric(rate, _REFILL).cumsum()",
     ["tests/test_scm.py::test_skip_gaps_past_the_int64_range"]),
    ("buffer_not_shifted_after_block", SCM,
     "        pos -= block\n",
     "        pos -= 0\n",
     [SKIPPING]),
    ("column_keeps_its_previous_block", SCM,
     "        yield _fill(block, others.dtype.type(mode), exceptions)\n",
     "        kept = [*(kept[-1:] if start else []), _fill(block, others.dtype.type(mode), "
     "exceptions)]\n        yield kept[-1]\n",
     ["tests/test_scm.py::test_mc_memory_live_columns_when_skipping"]),
    ("every_column_drawn_at_block_start", SCM,
     "codes = _solve_planned(plan, lambda v: next(columns[v]))",
     "codes = _solve_planned(plan, {v: next(c) for v, c in columns.items()}.__getitem__)",
     ["tests/test_scm.py::test_mc_memory_does_not_grow_with_width"]),
    ("out_of_memory_not_mapped", SCM,
     "    except MemoryError:\n        raise SampleCountTooLarge(",
     "    except ():\n        raise SampleCountTooLarge(",
     ["tests/test_scm.py::test_mc_out_of_memory_is_sample_count_too_large",
      "tests/test_cli.py::test_prob_out_of_memory_mid_estimate"]),
    ("merge_skips_two_boxes", SCM,
     "if len(boxes) < 2:",
     "if len(boxes) < 3:",
     ["tests/test_scm.py::test_disjoint_pieces_equal_the_frozen_copy"]),
    ("roots_before_scope", SCM,
     "ready = [v for v in scope if not pending[v]] + list(roots)",
     "ready = list(roots) + [v for v in scope if not pending[v]]",
     ["tests/test_scm.py::test_plans_equal_the_frozen_copy"]),
    ("no_underflow_check", SCM,
     "if min(e, 1.0 if total is None else total) < sys.float_info.min:",
     "if False:",
     [UNDERFLOW, "tests/test_cli.py::test_counterfactual_underflowing_observation"]),
    ("true_zero_refused", SCM,
     "x < sys.float_info.min and (x or n):",
     "x < sys.float_info.min:",
     ["tests/test_cli.py::test_true_zero_below_the_normal_float_range_is_kept"]),
    ("no_overflow_catch", SCM,
     "except (OverflowError, FloatingPointError):",
     "except ():",
     ["tests/test_cli.py::test_expected_cost_past_the_float_range"]),
    ("loader_allows_repeated_override", IO,
     "        if dup is not None:\n            raise DuplicateVariable(",
     "        if False:\n            raise DuplicateVariable(",
     TWICE),
    ("byte_order_mark_kept", IO,
     'encoding = "utf-8" if mode == "w" else "utf-8-sig"',
     'encoding = "utf-8"',
     ["tests/test_io.py::test_byte_order_mark_is_skipped"]),
    ("record_assignable", RECORD,
     'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)",
     ["tests/test_records.py::test_record_refuses_assignment",
      "tests/test_scm.py::test_scm_is_frozen"]),
    ("domain_compares_codes", SCM,
     '_fields = ("values",)',
     '_fields = ("values", "codes")',
     ["tests/test_records.py::test_record_equality",
      "tests/test_scm.py::test_domain_codes_are_positions_and_not_compared"]),
    ("no_epsilon_check", BLAME,
     "if not 0 < epsilon <= 1:",
     "if False:",
     ["tests/test_blame.py::test_discount_spec_rejects_bad_fields",
      "tests/test_cli.py::test_blame_bad_epsilon_without_discount"]),
    ("empty_positive_refused", CLI,
     "or args.positive is None:",
     "or not args.positive:",
     ["tests/test_cli.py::test_metrics_empty_positive_is_an_absent_label"]),
    # `_query` alone refuses an observation; `abduct` asks it to.
    ("impossible_observation_not_refused", SCM,
     "        if total == 0:\n            raise ZeroProbabilityObservation(",
     "        if False:\n            raise ZeroProbabilityObservation(",
     [ABDUCT_UNDERFLOW, "tests/test_scm.py::test_abduct_impossible_observation",
      "tests/test_cli.py::test_true_zero_below_the_normal_float_range_is_kept"]),
    ("abduct_refusal_not_asked_of_query", SCM,
     '        _query(scm, (), "observation", observation)\n',
     "        pass\n",
     [ABDUCT_UNDERFLOW, "tests/test_scm.py::test_abduct_impossible_observation"]),
    ("abduct_listed_underflow_not_refused", SCM,
     '        raise _underflow("P(observation)", total)\n',
     "        pass\n",
     ["tests/test_scm.py::test_abduct_listed_sum_below_the_range_of_its_query"]),
    # `_rewire` checks nothing: each caller checks what it passes.
    ("intervention_unchecked", SCM,
     '    _encode(scm, OutcomeSpec.conjunction(bindings.items()), "intervention")\n',
     "    pass\n",
     ["tests/test_scm.py::test_intervene_errors",
      "tests/test_scm.py::test_unhashable_value_is_in_no_domain",
      "tests/test_cli.py::test_first_bad_do_binding_named"]),
    ("action_override_id_unchecked", BLAME,
     'raise UnknownVariable(f"action {name!r} overrides unknown variable {var!r}")',
     "pass",
     ["tests/test_blame.py::test_apply_action_unknown_variable",
      *(BAD_ACTION.format("unknown_variable", suffix) for suffix in EVERY_COMMAND)]),
    ("false_not_written_as_json", IO,
     '    elif obj is False:\n        out.append("false")\n',
     "",
     ["tests/test_io.py::test_canonical_dumps_sorted_and_stable"]),
    ("long_integer_not_refused", IO,
     "        except ValueError:  # past the digits Python writes an integer in",
     "        except ():",
     ["tests/test_cli.py::test_count_past_the_int_digit_limit_is_refused"]),
    ("long_count_not_named_by_its_power_of_two", SCM,
     "        return str(n)\n    except ValueError:",
     "        return str(n)\n    except ():",
     ["tests/test_cli.py::test_piece_bound_past_the_int_digit_limit_is_refused",
      "tests/test_scm.py::test_joint_space_past_the_int_digit_limit_named_by_its_power_of_two"]),
    ("power_of_two_not_told_apart", SCM,
     'return f"2^{k}" if n == 1 << k else f"more than 2^{k}"',
     'return f"more than 2^{k}"',
     ["tests/test_scm.py::test_joint_space_past_the_int_digit_limit_named_by_its_power_of_two"]),
    ("empty_domain_allowed", SCM,
     "        if len(values) == 0:\n",
     "        if False:\n",
     ["tests/test_cli.py::test_bad_input_file[scm_empty_domain]"]),
    ("missing_entry_not_named", SCM,
     "            if combo not in en.mechanism:\n",
     "            if False:\n",
     ["tests/test_cli.py::test_bad_input_file[scm_key_outside_parent_values]"]),
    ("unknown_comparator_read_as_neq", SCM,
     '            elif cmp == "neq":\n                ok &= env[var] != target\n'
     '            else:\n                raise ValueOutOfDomain(f"unknown comparator {cmp!r}")\n',
     "            else:\n                ok &= env[var] != target\n",
     ["tests/test_scm.py::test_unknown_comparator_refused"]),
    ("zero_samples_allowed", SCM,
     "    if samples < 1:\n",
     "    if samples < 0:\n",
     ["tests/test_scm.py::test_mc_needs_a_sample"]),
    ("nan_confidence_allowed", HITL,
     "ok = (0.0 <= conf) & (conf <= 1.0)",
     "ok = ~((conf < 0.0) | (conf > 1.0))",
     ["tests/test_hitl.py::test_case_confidence_outside_unit_interval_refused[nan]",
      f"{CASELOG}[nan_confidence]"]),
    ("empty_joint_not_refused", HITL,
     "        if not n:\n",
     "        if False:\n",
     ["tests/test_hitl.py::test_from_cases_of_no_cases_refused", f"{CASELOG}[empty]"]),
    ("empty_case_id_allowed", HITL,
     "        if not all(ids):\n",
     "        if False:\n",
     [f"{CASELOG}[empty_id]"]),
    ("empty_label_allowed", HITL,
     '        if "" in labels:\n',
     "        if False:\n",
     [f"{CASELOG}[empty_label]"]),
    ("repeated_case_id_allowed", HITL,
     "        if dup is not None:\n            raise DuplicateCaseId(",
     "        if False:\n            raise DuplicateCaseId(",
     ["tests/test_hitl.py::test_run_duplicate_ids", f"{CASELOG}[duplicate]",
      "tests/test_io.py::test_load_cases_duplicate_id"]),
    ("column_length_unchecked", HITL,
     "            if len(column) != n:\n",
     "            if False:\n",
     [f"{CASELOG}[confidence_column_long]", f"{CASELOG}[truth_column_short]"]),
    ("negative_label_code_allowed", HITL,
     "if not 0 <= code < len(labels):",
     "if not code < len(labels):",
     [f"{CASELOG}[code_minus_one]"]),
    ("label_code_past_labels_allowed", HITL,
     "if not 0 <= code < len(labels):",
     "if not 0 <= code:",
     [f"{CASELOG}[code_past_labels]"]),
    ("negative_cost_allowed", HITL,
     "0 <= ai_cost < math.inf and 0 <= review_cost < math.inf",
     "ai_cost < math.inf and review_cost < math.inf",
     ["tests/test_hitl.py::test_hitl_blame_rejects_negative_costs",
      "tests/test_hitl.py::test_hitl_negative_cost_refused"]),
    ("infinite_cost_allowed", HITL,
     "0 <= ai_cost < math.inf and 0 <= review_cost < math.inf",
     "0 <= ai_cost and 0 <= review_cost",
     ["tests/test_hitl.py::test_hitl_blame_input_rejects_non_finite_costs"]),
    ("too_many_probabilities_allowed", SCM,
     "        if len(ex.dist) != len(ex.domain.values):\n",
     "        if False:\n",
     ["tests/test_cli.py::test_bad_input_file[scm_probs_for_too_many_values]"]),
    ("output_outside_domain_not_mapped", SCM,
     "            except (KeyError, TypeError):  # TypeError: an unhashable output\n",
     "            except TypeError:\n",
     ["tests/test_cli.py::test_bad_input_file[scm_output_outside_domain]"]),
    ("non_object_entry_allowed", IO,
     "    if not isinstance(raw, dict):\n",
     "    if False:\n",
     ["tests/test_cli.py::test_bad_input_file[scm_exogenous_entry_int]"]),
    ("one_ordinal_category_allowed", METRICS,
     "        if k < 2:\n",
     "        if k < 1:\n",
     [ORDINAL, "tests/test_cli.py::test_bad_input_file[ratings_one_category]"]),
    ("confusion_shape_unchecked", METRICS,
     "        if m.shape != (k, k):\n",
     "        if False:\n",
     [ORDINAL]),
    ("negative_confusion_counts_allowed", METRICS,
     "        if (m < 0).any():\n",
     "        if False:\n",
     [ORDINAL]),
    ("empty_confusion_allowed", METRICS,
     "        if m.sum() < 1:\n",
     "        if False:\n",
     [ORDINAL]),
    ("negative_binary_counts_allowed", METRICS,
     "        if min(tp, fp, fn, tn) < 0:\n",
     "        if False:\n",
     [BINARY]),
    ("zero_binary_counts_allowed", METRICS,
     "        if tp + fp + fn + tn < 1:\n",
     "        if False:\n",
     [BINARY]),
    ("no_pairs_allowed", METRICS,
     "        if not pairs:\n",
     "        if False:\n",
     ["tests/test_metrics.py::test_confusion_from_pairs_refuses_no_pairs"]),
    ("different_lengths_allowed", METRICS,
     "    if pred.shape != true.shape:\n",
     "    if False:\n",
     ["tests/test_metrics.py::test_binary_counts_refuse_lists_of_different_lengths"]),
    ("unknown_profile_allowed", SYNTHETIC,
     '    if confidence_profile not in ("binned", "uniform"):\n',
     "    if False:\n",
     ["tests/test_cli.py::test_gen_synthetic_unknown_confidence_profile"]),
    ("accuracy_past_one_allowed", SYNTHETIC,
     "        if not 0.0 <= v <= 1.0:\n",
     "        if False:\n",
     ["tests/test_cli.py::test_bad_input_file[gen_ai_accuracy_past_one]"]),
]


def _failed(output: str) -> set:
    """The node ids that pytest's short summary (-rfE) lists as failed or
    in error."""
    return {line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1}


def _covers(name: str, failed: set) -> bool:
    """Whether an item of the test `name` (a node id, or a function whose
    parametrized items are meant) is among `failed`."""
    return any(f == name or f.startswith((name + "[", name + "::")) for f in failed)


def run_row(row) -> tuple:
    """(caught, detail) for one row: its mutant applied to a copy of
    `src/`, its tests run on that copy."""
    _, path, old, new, tests = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return False, f"old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT} s"
    if done.returncode != 1:
        return False, f"pytest exited {done.returncode}"
    failed = _failed(done.stdout)
    passed = [name for name in tests if not _covers(name, failed)]
    if passed:
        return False, "passed: " + ", ".join(passed)
    return True, f"{len(failed)} failed"


def main(names) -> int:
    unknown = sorted(set(names).difference(row[0] for row in MUTANTS))
    if unknown:
        print(f"no such row: {', '.join(unknown)}", file=sys.stderr)
        return 2
    rows = [row for row in MUTANTS if not names or row[0] in names]
    _, path, old, _, tests = rows[0]
    control, detail = run_row(("control", path, old, old, tests))
    print(f"{'control (old = new)':40s} {'CAUGHT' if control else 'missed'} ({detail})",
          flush=True)
    missed = 0
    for row in rows:
        caught, detail = run_row(row)
        missed += not caught
        print(f"{row[0]:40s} {'caught' if caught else 'MISSED'} ({detail})", flush=True)
    ok = not control and not missed
    print(f"{len(rows) - missed} of {len(rows)} mutants caught, control "
          + ("missed" if not control else "caught") + ("" if ok else "; check FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
