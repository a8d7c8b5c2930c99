"""TF-IDF ranked retrieval with optional OR-operator semantics.

The engine answers a query with its top-*k* documents under cosine
TF-IDF scoring. Two behaviours matter for the paper's accuracy argument
(§II-A3, Fig 6):

- ``or_support="native"``: ``a OR b`` returns a score-merged union of
  the sub-queries' results — the best case GooPIR/PEAS can hope for.
- ``or_support="none"``: the OR string is treated as one long bag of
  words (what §II-A3 reports real engines do), diluting the real
  query's terms among the fakes' and wrecking result relevance.

Either way the response to an OR query is a single merged list in which
the client cannot tell which document answered which sub-query — the
root cause of the correctness/completeness losses CYCLOSA avoids by
never aggregating queries.

Sharding support: an engine instance can index a *subset* of the corpus
(one shard) while scoring with corpus-global IDF statistics. Because a
document's score accumulates exactly the same terms with exactly the
same weights whether its shard or the full index ranks it, a shard's
partial top-k carries bit-identical scores — which is what lets
:mod:`repro.searchengine.sharding` merge partials into a result list
byte-identical to the unsharded engine's (see there).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.searchengine.corpus import Corpus, Document
from repro.text.tokenize import tokenize

OR_SEPARATOR = " OR "


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    doc_id: int
    url: str
    score: float
    snippet_terms: Tuple[str, ...]


def split_or(query: str, or_support: str) -> Optional[List[str]]:
    """The sub-queries of a native-OR query, or ``None`` when the query
    is served as one bag of words (plain query, or OR without native
    support)."""
    if OR_SEPARATOR in query and or_support == "native":
        subqueries = [part for part in query.split(OR_SEPARATOR)
                      if part.strip()]
        if subqueries:
            return subqueries
    return None


def or_union(rankings: Iterable[Sequence[SearchHit]],
             topk: int) -> List[SearchHit]:
    """Union of per-subquery rankings, merged by score.

    An OR query matches more documents, so the engine returns a
    proportionally larger result page (up to ``2 * topk``). The client
    still cannot tell which document answered which sub-query —
    recovering the real answer from this merged list is the filtering
    problem that costs OR systems accuracy (Fig 6). A document hit by
    several sub-queries keeps its best score (first sub-query wins
    ties, matching iteration order).
    """
    best: Dict[int, SearchHit] = {}
    for ranking in rankings:
        for hit in ranking:
            existing = best.get(hit.doc_id)
            if existing is None or hit.score > existing.score:
                best[hit.doc_id] = hit
    merged = sorted(best.values(), key=lambda h: (-h.score, h.doc_id))
    # The engine's OR result page is larger than a plain page but
    # not k+1 pages: sub-queries compete for the slots. This is the
    # completeness loss OR systems pay (and it worsens with k).
    return merged[: 2 * topk]


class SearchEngine:
    """An inverted-index TF-IDF engine over a :class:`Corpus`.

    Pass *documents* to index only a subset (one shard) and *idf* to
    score with precomputed corpus-global statistics; by default the
    engine indexes and computes statistics over the whole corpus.
    """

    def __init__(self, corpus: Corpus, results_per_query: int = 10,
                 or_support: str = "native", *,
                 documents: Optional[Sequence[Document]] = None,
                 idf: Optional[Dict[str, float]] = None) -> None:
        if or_support not in ("native", "none"):
            raise ValueError("or_support must be 'native' or 'none'")
        self.corpus = corpus
        self.results_per_query = results_per_query
        self.or_support = or_support
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._doc_norms: Dict[int, float] = {}
        self._documents: Dict[int, Document] = {}
        self._build_index(
            corpus.documents if documents is None else documents, idf)

    @staticmethod
    def compute_idf(documents: Sequence[Document]) -> Dict[str, float]:
        """Smoothed IDF over *documents* — the corpus-global statistics
        every shard must share for scores to stay bit-identical."""
        num_docs = len(documents)
        term_doc_freq: Dict[str, int] = {}
        for document in documents:
            for term in dict.fromkeys(document.tokens):
                term_doc_freq[term] = term_doc_freq.get(term, 0) + 1
        return {
            term: math.log((1 + num_docs) / (1 + df)) + 1.0
            for term, df in term_doc_freq.items()
        }

    def _build_index(self, documents: Sequence[Document],
                     idf: Optional[Dict[str, float]]) -> None:
        doc_term_counts: List[Tuple[int, Dict[str, int]]] = []
        term_doc_freq: Dict[str, int] = {}
        for document in documents:
            counts: Dict[str, int] = {}
            for token in document.tokens:
                counts[token] = counts.get(token, 0) + 1
            doc_term_counts.append((document.doc_id, counts))
            self._documents[document.doc_id] = document
            if idf is None:
                for term in counts:
                    term_doc_freq[term] = term_doc_freq.get(term, 0) + 1
        if idf is None:
            num_docs = len(documents)
            idf = {
                term: math.log((1 + num_docs) / (1 + df)) + 1.0
                for term, df in term_doc_freq.items()
            }
        for doc_id, counts in doc_term_counts:
            norm_sq = 0.0
            for term, count in counts.items():
                term_idf = idf[term]
                weight = (1.0 + math.log(count)) * term_idf
                # A posting carries the query-side idf factor already
                # applied: ranking adds ``idf * weight`` per match, and
                # folding it here yields the same float.
                self._postings.setdefault(term, []).append(
                    (doc_id, term_idf * weight))
                norm_sq += weight * weight
            self._doc_norms[doc_id] = math.sqrt(norm_sq) or 1.0

    # -- querying --------------------------------------------------------

    def search(self, query: str, topk: int | None = None) -> List[SearchHit]:
        """Answer *query*; handles the OR operator per ``or_support``."""
        topk = topk if topk is not None else self.results_per_query
        subqueries = split_or(query, self.or_support)
        if subqueries is not None:
            return or_union(
                (self._rank(tokenize(subquery), topk)
                 for subquery in subqueries), topk)
        # Either a plain query, or an OR query on an engine without
        # native OR support: one big bag of words.
        return self._rank(tokenize(query.replace(OR_SEPARATOR, " ")), topk)

    def search_batch(self, queries: Sequence[str],
                     topk: int | None = None) -> List[List[SearchHit]]:
        """One result list per query, with duplicate queries ranked
        once — the term-lookup amortisation behind replica batching.
        Equivalent to ``[self.search(q, topk) for q in queries]``."""
        memo: Dict[str, List[SearchHit]] = {}
        results: List[List[SearchHit]] = []
        for query in queries:
            ranked = memo.get(query)
            if ranked is None:
                ranked = self.search(query, topk)
                memo[query] = ranked
            results.append(list(ranked))
        return results

    def rank_terms(self, terms: Sequence[str], topk: int) -> List[SearchHit]:
        """Rank a pre-tokenised term list — the partial top-k a shard
        serves to scatter-gather coordinators."""
        return self._rank(terms, topk)

    def _rank(self, terms: Sequence[str], topk: int) -> List[SearchHit]:
        postings = self._postings
        query_terms = [t for t in terms if t in postings]
        if not query_terms:
            return []
        scores: Dict[int, float] = {}
        get = scores.get
        for term in query_terms:
            for doc_id, weighted in postings[term]:
                scores[doc_id] = get(doc_id, 0.0) + weighted
        norms = self._doc_norms
        # (-score, doc_id) orders by score descending, ties by doc id;
        # negating before or after the division gives the same float.
        top = heapq.nsmallest(
            topk, [(-score / norms[doc_id], doc_id)
                   for doc_id, score in scores.items()])
        hits = []
        for neg_score, doc_id in top:
            document = self._documents[doc_id]
            tokens = set(document.tokens)
            snippet = tuple(t for t in query_terms if t in tokens)[:5]
            hits.append(SearchHit(
                doc_id=doc_id, url=document.url, score=-neg_score,
                snippet_terms=snippet))
        return hits

    def document(self, doc_id: int) -> Document:
        return self._documents[doc_id]
