"""Layer boundaries of kerovlab and the per-layer metrics derived from them.

The traced run wraps each boundary below (module, qualified name) and records
one span per call; the span name is "module.qualname".  A metric ending in
``_s`` is the summed self time of its spans unless its kind says "incl"
(summed duration).  The self-time metrics partition the time spent inside
``cli.main``.  ``trace.coverage`` checks that the named layers, with
interpreter start-up, import and shutdown, explain the traced wall time; the
self time of ``cli.main`` itself is what no layer claims, so it is left out.
"""

BOUNDARIES = (
    ("partitions", "enumerate_partitions"),
    ("cumulants", "free_cumulants"),
    ("cumulants", "_cumulant_list"),
    ("cumulants", "c_values"),
    ("cumulants", "q_values"),
    ("characters", "normalized_character"),
    ("characters", "mn_character"),
    ("characters", "dimension"),
    ("linalg", "ModularEchelon.add_row"),
    ("linalg", "solve_exact"),
    ("linalg", "solve_bareiss"),
    ("linalg", "solve_crt"),
    ("linalg", "_solve_mod_p"),
    ("linalg", "FractionEchelon.add_row"),
    ("linalg", "FractionEchelon.solution"),
    ("kerov", "compute_kerov"),
    ("kerov", "_evaluation_row"),
    ("kerov", "_verify_held_out"),
    ("kerov", "change_generators"),
    ("kerov", "KerovProvider.get"),
    ("kerov", "KerovProvider.component"),
    ("kerov", "KerovProvider.precompute"),
    ("kerov", "KerovProvider._load_disk"),
    ("kerov", "KerovProvider._store_disk"),
    ("symfunc", "SymFunc.convert"),
    ("symfunc", "SymFunc.evaluate"),
    ("conjectures", "run_suite"),
    ("conjectures", "verify_table"),
    ("conjectures", "extract_symfunc"),
    ("conjectures", "load_table"),
    ("conjectures", "selftest"),
    ("cli", "main"),
)

# Module caches whose size the traced run reads at exit: metric -> (module, name).
CACHES = {
    "cumulants.cache_entries": ("cumulants", "_cumulant_cache"),
    "characters.mn_cache_entries": ("characters", "_mn_cache"),
}

# (metric, unit, better, kind, spans).  Kinds over spans:
#   self / incl   summed self time / summed duration
#   calls         number of spans
#   tags          summed tags
#   zero_tags     spans whose tag is 0
#   tag_ratio     summed tags / number of spans
#   calls_minus   spans of the first boundary minus spans of the second
# Kind "process" metrics come from the processes themselves, not from spans.
METRICS = (
    ("partitions.enumerate_s", "s", "lower", "self", ("partitions.enumerate_partitions",)),
    ("cumulants.time_s", "s", "lower", "self",
     ("cumulants.free_cumulants", "cumulants._cumulant_list", "cumulants.c_values",
      "cumulants.q_values")),
    ("cumulants.calls", "count", "lower", "calls", ("cumulants._cumulant_list",)),
    ("cumulants.cache_hit_ratio", "ratio", "higher", "tag_ratio", ("cumulants._cumulant_list",)),
    ("cumulants.cache_entries", "count", "lower", "process", ()),
    ("characters.time_s", "s", "lower", "self",
     ("characters.normalized_character", "characters.mn_character", "characters.dimension")),
    ("characters.calls", "count", "lower", "calls",
     ("characters.normalized_character", "characters.mn_character")),
    ("characters.mn_cache_entries", "count", "lower", "process", ()),
    ("linalg.echelon_s", "s", "lower", "self", ("linalg.ModularEchelon.add_row",)),
    ("linalg.solve_s", "s", "lower", "self",
     ("linalg.solve_exact", "linalg.solve_bareiss", "linalg.solve_crt", "linalg._solve_mod_p")),
    ("linalg.solve_unknowns", "count", "lower", "tags", ("linalg.solve_exact",)),
    ("linalg.bareiss_calls", "count", "lower", "calls", ("linalg.solve_bareiss",)),
    ("linalg.crt_primes", "count", "lower", "calls", ("linalg._solve_mod_p",)),
    ("linalg.fraction_echelon_s", "s", "lower", "self",
     ("linalg.FractionEchelon.add_row", "linalg.FractionEchelon.solution")),
    ("linalg.fraction_echelon_rows", "count", "lower", "calls",
     ("linalg.FractionEchelon.add_row",)),
    ("kerov.compute_s", "s", "lower", "incl", ("kerov.compute_kerov",)),
    ("kerov.self_s", "s", "lower", "self", ("kerov.compute_kerov",)),
    ("kerov.row_eval_s", "s", "lower", "self", ("kerov._evaluation_row",)),
    ("kerov.held_out_s", "s", "lower", "self", ("kerov._verify_held_out",)),
    ("kerov.rows_sampled", "count", "lower", "calls", ("linalg.ModularEchelon.add_row",)),
    ("kerov.pivot_ratio", "ratio", "higher", "tag_ratio", ("linalg.ModularEchelon.add_row",)),
    ("kerov.recheck_rows", "count", "lower", "calls_minus",
     ("kerov._evaluation_row", "linalg.ModularEchelon.add_row")),
    ("kerov.change_generators_s", "s", "lower", "self", ("kerov.change_generators",)),
    ("kerov.change_generators_calls", "count", "lower", "calls", ("kerov.change_generators",)),
    ("kerov.provider.self_s", "s", "lower", "self",
     ("kerov.KerovProvider.get", "kerov.KerovProvider.component",
      "kerov.KerovProvider.precompute")),
    ("kerov.provider.load_s", "s", "lower", "self", ("kerov.KerovProvider._load_disk",)),
    ("kerov.provider.store_s", "s", "lower", "self", ("kerov.KerovProvider._store_disk",)),
    ("kerov.provider.disk_hits", "count", "higher", "tags", ("kerov.KerovProvider._load_disk",)),
    ("kerov.provider.disk_misses", "count", "lower", "zero_tags",
     ("kerov.KerovProvider._load_disk",)),
    ("kerov.provider.computes", "count", "lower", "calls", ("kerov.compute_kerov",)),
    ("symfunc.convert_s", "s", "lower", "self", ("symfunc.SymFunc.convert",)),
    ("symfunc.evaluate_s", "s", "lower", "self", ("symfunc.SymFunc.evaluate",)),
    ("conjectures.self_s", "s", "lower", "self",
     ("conjectures.run_suite", "conjectures.verify_table", "conjectures.selftest")),
    ("conjectures.extract_s", "s", "lower", "self", ("conjectures.extract_symfunc",)),
    ("conjectures.load_table_s", "s", "lower", "self", ("conjectures.load_table",)),
    ("cli.self_s", "s", "lower", "self", ("cli.main",)),
    ("cli.startup_s", "s", "lower", "process", ()),
    ("cli.import_s", "s", "lower", "process", ()),
    ("cli.exit_s", "s", "lower", "process", ()),
    ("cli.processes", "count", "lower", "process", ()),
    ("trace.coverage", "ratio", "higher", "process", ()),
    ("trace.overhead_s", "s", "lower", "process", ()),
)
