//! # cohana-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (§5):
//!
//! | Experiment | Paper artifact | Function | Checked by |
//! |------------|----------------|----------|------------|
//! | `table2`   | Table 2 (plain GROUP BY weekly trend) | [`experiments::table2`] | `experiments::tests::table2_has_weeks` |
//! | `table3`   | Table 3 / Figure 1 (cohort matrix) | [`experiments::table3`] | `cohana-core` `differential::weekly_time_cohorts_match_reference` |
//! | `fig6`     | Figure 6 (COHANA vs chunk size, Q1–Q4, scales) | [`experiments::fig6`] | `cohana-core` `exec::tests::kernel_work_is_flat_in_chunk_size_figure6` |
//! | `fig7`     | Figure 7 (storage vs chunk size) | [`experiments::fig7`] | `cohana-storage` `stats::tests::larger_chunks_cost_more_bits_figure7`, `table::tests::smaller_chunks_use_fewer_bits_per_value` |
//! | `fig8`     | Figure 8 (birth-selection selectivity) | [`experiments::fig8`] | `cohana-core` `exec::tests::birth_bounds_decode_along_the_birth_cdf_figure8` |
//! | `fig9`     | Figure 9 (age-selection selectivity) | [`experiments::fig9`] | `cohana-core` `exec::tests::age_bounds_decode_in_proportion_to_the_ages_selected` |
//! | `fig10`    | Figure 10 (MV generation vs compression time) | [`experiments::fig10`] | `experiments::tests::mv_outweighs_the_compressed_table_figure10` |
//! | `fig11`    | Figure 11 (five evaluation schemes, Q1–Q4, scales) | [`experiments::fig11`] | answers only: `cohana-relational` `baseline_differential`, `end_to_end::all_five_schemes_agree_on_all_benchmark_queries` |
//! | `ablation` | DESIGN.md D1–D4 optimization ablations | [`experiments::ablation`] | below |
//!
//! The ablation's four planner switches each have their own check:
//!
//! | Switch | Checked by |
//! |--------|------------|
//! | D1 `push_down_birth_selection` | `cohana-core` `plan::tests::push_down_puts_birth_below_age`, `no_push_down_keeps_query_order` |
//! | D2 `skip_unqualified_users` | `cohana-core` `exec::tests::skipping_unqualified_users_decodes_less_for_the_same_answer` |
//! | D3 `prune_chunks` | `cohana-core` `version_matrix::cohort_clustered_data_prunes_chunks_and_bytes`, `lazy_storage::disabled_pruning_still_correct_on_lazy_source` |
//! | D4 `array_aggregation` | `cohana-core` `exec::tests::accumulator_footprint_follows_cohorts_seen_not_dictionary_size` |
//!
//! Figures 6–10 and D2–D4 are checked by counting work (tuples decoded and
//! folded, users, chunks pruned, bits, bytes, states allocated) rather than
//! time, so a check fails when the decision behind its figure breaks.
//! Tables 2 and 3 are checked by their answers, D1 by the plan it builds,
//! and Figure 11 by answers only: the relational stand-ins count nothing.
//!
//! The `cohana-bench` binary drives the experiments (`cohana-bench --exp
//! fig11`) and is the one clock-driven reproduction. What the engine adds
//! beyond the paper (lazy file I/O, codecs, ingest, serving, parallel
//! workers) is measured by the repository benchmark in `benchmark/`, not
//! here.
//!
//! Absolute times differ from the paper's testbed; the harness is about
//! reproducing the *shape*: who wins, by how many orders of magnitude, and
//! how costs move with scale, chunk size, and selectivity.

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod timing;
