"""The op list both searchers share: ``IndexSearcher`` (one shard) and
``DistributedSearcher`` (a shard-host pool) inherit ``SharedOps``, so
they bind the same ``op(s, ...)`` functions and cannot drift. A context
supplies ``_all`` / ``_topk`` (fan-out), ``_gdfs`` / ``_gcfs`` (global
stats), ``n_docs``, ``manifest`` and ``_co_located``.
"""

from __future__ import annotations

from . import aggs, queryparser, querystring, scoring, significant, suggest


class SharedOps:
    """Ops bound on both searchers: every merge is exact on any shard
    count, except the quantile aggs' t-digest tier (a sketch)."""

    facet_terms = aggs.facet_terms
    facet_top_hits = aggs.facet_top_hits
    agg_composite = aggs.agg_composite
    agg_multi_terms = aggs.agg_multi_terms
    agg_histogram = aggs.agg_histogram
    agg_terms_stats = aggs.agg_terms_stats
    agg_stats = aggs.agg_stats
    agg_extended_stats = aggs.agg_extended_stats
    agg_sampler = aggs.agg_sampler
    agg_t_test = aggs.agg_t_test
    agg_matrix_stats = aggs.agg_matrix_stats
    agg_range = aggs.agg_range
    agg_weighted_avg = aggs.agg_weighted_avg
    agg_top_metrics = aggs.agg_top_metrics
    agg_filters = aggs.agg_filters
    agg_adjacency_matrix = aggs.agg_adjacency_matrix
    agg_cardinality = aggs.agg_cardinality
    agg_percentiles = aggs.agg_percentiles
    agg_percentile_ranks = aggs.agg_percentile_ranks
    agg_mad = aggs.agg_mad
    agg_boxplot = aggs.agg_boxplot
    agg_string_stats = aggs.agg_string_stats
    agg_scripted_metric = aggs.agg_scripted_metric
    significant_terms = significant.significant_terms
    significant_text = significant.significant_text
    terms_enum = suggest.terms_enum
    agg_rare_terms = suggest.agg_rare_terms
    suggest_term = suggest.suggest_term
    suggest_completion = suggest.suggest_completion
    suggest_completion_fuzzy = suggest.suggest_completion_fuzzy
    suggest_phrase = suggest.suggest_phrase
    search_phrase = scoring.search_phrase
    search_phrase_prefix = scoring.search_phrase_prefix
    search_bool = scoring.search_bool
    search_terms_set = scoring.search_terms_set
    search_synonym = scoring.search_synonym
    search_dis_max = scoring.search_dis_max
    search_decay = scoring.search_decay
    search_boosting = scoring.search_boosting
    search_rank_feature = scoring.search_rank_feature
    search_function_score = scoring.search_function_score
    search_distance_feature = scoring.search_distance_feature
    search_script_score = scoring.search_script_score
    search_pinned = scoring.search_pinned
    search_ids = scoring.search_ids
    search_range = scoring.search_range
    search_sparse_dot = scoring.search_sparse_dot
    search_lm = scoring.search_lm
    search_span_first = scoring.search_span_first
    search_span_not = scoring.search_span_not
    search_span_near = scoring.search_span_near
    search_span_multi = scoring.search_span_multi
    search_span_or = scoring.search_span_or
    search_span_within = scoring.search_span_within
    search_span_containing = scoring.search_span_containing
    search_intervals = scoring.search_intervals
    highlight_best_window = scoring.highlight_best_window
    explain_bm25 = scoring.explain_bm25
    search_prefix = scoring.search_prefix
    search_wildcard = scoring.search_wildcard
    search_infix_ngram = scoring.search_infix_ngram
    search_regexp = scoring.search_regexp
    search_fuzzy = scoring.search_fuzzy
    search_query_string = queryparser.search_query_string
    search_simple_query_string = querystring.search_simple_query_string
    search_match_bool_prefix = querystring.search_match_bool_prefix
    PIN_SCORE_BASE = scoring.PIN_SCORE_BASE
