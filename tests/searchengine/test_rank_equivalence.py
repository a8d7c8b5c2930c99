"""The leaner ranker returns exactly what the textbook ranker returned.

``_ReferenceEngine`` below is a frozen copy of the previous
``SearchEngine`` index and ``_rank``: raw TF-IDF posting weights with
``idf * weight`` applied at query time, a full sort of every candidate,
a token set rebuilt per query term. The engine in ``src/`` folds idf
into its postings, selects the top k with a heap and builds each hit's
token set once; every hit must still agree on doc id, URL, the exact
bits of the score and the snippet terms.
"""

import math
import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.searchengine.corpus import Corpus, Document, build_corpus
from repro.searchengine.engine import (OR_SEPARATOR, SearchEngine, SearchHit,
                                       or_union, split_or)
from repro.searchengine.sharding import (build_shard_engines, query_plan,
                                         shard_documents)
from repro.text.tokenize import tokenize

NUM_QUERIES = 3000
TOPKS = (1, 3, 10, 50)


class _ReferenceEngine:
    """The previous ranker, kept verbatim apart from a per-term-list memo
    of the full sorted ranking and of the hits built from its head
    (``ranked[:topk]`` is a prefix of the full ranking and a hit does
    not depend on *topk*, so the memo changes no result)."""

    def __init__(self, documents, or_support="native", idf=None):
        self.or_support = or_support
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._doc_norms: Dict[int, float] = {}
        self._documents = {}
        self._ranked: Dict[Tuple[str, ...], List[Tuple[float, int]]] = {}
        self._hits: Dict[Tuple[str, ...], List[SearchHit]] = {}
        doc_term_counts = []
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
        self._idf = idf
        for doc_id, counts in doc_term_counts:
            norm_sq = 0.0
            for term, count in counts.items():
                weight = (1.0 + math.log(count)) * self._idf[term]
                self._postings.setdefault(term, []).append((doc_id, weight))
                norm_sq += weight * weight
            self._doc_norms[doc_id] = math.sqrt(norm_sq) or 1.0

    def search(self, query: str, topk: int) -> List[SearchHit]:
        subqueries = split_or(query, self.or_support)
        if subqueries is not None:
            return or_union(
                (self._rank(tokenize(subquery), topk)
                 for subquery in subqueries), topk)
        return self._rank(tokenize(query.replace(OR_SEPARATOR, " ")), topk)

    def _rank(self, terms: Sequence[str], topk: int) -> List[SearchHit]:
        query_terms = [t for t in terms if t in self._postings]
        if not query_terms:
            return []
        key = tuple(query_terms)
        ranked = self._ranked.get(key)
        if ranked is None:
            scores: Dict[int, float] = {}
            for term in query_terms:
                idf = self._idf[term]
                for doc_id, weight in self._postings[term]:
                    scores[doc_id] = scores.get(doc_id, 0.0) + idf * weight
            ranked = sorted(
                ((score / self._doc_norms[doc_id], doc_id)
                 for doc_id, score in scores.items()),
                key=lambda pair: (-pair[0], pair[1]))
            self._ranked[key] = ranked
        hits = self._hits.setdefault(key, [])
        for score, doc_id in ranked[len(hits):topk]:
            document = self._documents[doc_id]
            snippet = tuple(t for t in query_terms
                            if t in set(document.tokens))[:5]
            hits.append(SearchHit(
                doc_id=doc_id, url=document.url, score=score,
                snippet_terms=snippet))
        return hits[:topk]


def _key(hits: Sequence[SearchHit]):
    return [(h.doc_id, h.url, h.score.hex(), h.snippet_terms) for h in hits]


@pytest.fixture(scope="module")
def corpus():
    # A sixth of the default corpus (the same topics and term skew, with
    # posting lists short enough for 3000 queries at four page sizes per
    # case), plus a verbatim copy of every fifth document under a new
    # id: copies score bit-identically, so pages hit the doc-id
    # tie-break that generated documents alone almost never reach.
    base = build_corpus(docs_per_topic=20, seed=0).documents
    copies = [Document(doc_id=len(base) + index, url=f"{doc.url}#copy",
                       topic=doc.topic, tokens=doc.tokens)
              for index, doc in enumerate(base[::5])]
    return Corpus(documents=base + copies)


@pytest.fixture(scope="module")
def queries(corpus) -> List[str]:
    """Seeded queries: terms drawn in proportion to corpus frequency
    (head terms have long posting lists), repeated terms,
    out-of-vocabulary words and ``OR`` joins."""
    rng = random.Random(20181002)
    documents = corpus.documents

    def subquery() -> str:
        terms = [rng.choice(rng.choice(documents).tokens)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.15:
            terms.append(terms[0])
        if rng.random() < 0.1:
            terms.insert(rng.randrange(len(terms) + 1), "zzunseen")
        return " ".join(terms)

    result = []
    for _ in range(NUM_QUERIES):
        if rng.random() < 0.3:
            result.append(OR_SEPARATOR.join(
                subquery() for _ in range(rng.randint(2, 3))))
        else:
            result.append(subquery())
    return result


@pytest.mark.parametrize("or_support", ["native", "none"])
def test_search_matches_reference(corpus, queries, or_support):
    engine = SearchEngine(corpus, or_support=or_support)
    reference = _ReferenceEngine(corpus.documents, or_support=or_support)
    nonempty = ties = 0
    for query in queries:
        for topk in TOPKS:
            got = engine.search(query, topk)
            assert _key(got) == _key(reference.search(query, topk)), \
                (query, topk)
            nonempty += bool(got)
            ties += len(got) - len({hit.score for hit in got})
    assert nonempty > 0.9 * len(queries) * len(TOPKS)
    assert ties > len(queries), "the doc-id tie-break went unexercised"


@pytest.mark.parametrize("replicas", [2, 3])
def test_shard_engines_match_reference(corpus, queries, replicas):
    """Each shard's partial top-k matches the reference over that shard,
    scored with corpus-global idf, for every term list a coordinator
    scatters under either ``or_support`` (native: one list per
    sub-query; none: one bag of words). The merge above the shards is
    unchanged code, pinned against the unsharded engine by
    test_sharding.py."""
    engines = build_shard_engines(corpus, replicas)
    idf = SearchEngine.compute_idf(corpus.documents)
    references = [_ReferenceEngine(documents, idf=idf)
                  for documents in shard_documents(corpus, replicas)]
    for query in queries:
        term_lists = query_plan(query, "native")
        if len(term_lists) > 1:
            term_lists += query_plan(query, "none")
        for terms in term_lists:
            for topk in TOPKS:
                for engine, reference in zip(engines, references):
                    assert _key(engine.rank_terms(terms, topk)) == _key(
                        reference._rank(terms, topk)), (query, topk)


def test_reference_is_the_textbook_ranker(corpus):
    """The copy above is not vacuous: its top hit for a corpus-unique
    term is the one document holding it."""
    counts: Dict[str, List[int]] = {}
    for document in corpus.documents:
        for term in set(document.tokens):
            counts.setdefault(term, []).append(document.doc_id)
    term, (doc_id,) = next((t, ids) for t, ids in sorted(counts.items())
                           if len(ids) == 1)
    reference = _ReferenceEngine(corpus.documents)
    hits = reference.search(term, 3)
    assert [hit.doc_id for hit in hits] == [doc_id]
    assert hits[0].snippet_terms == (term,)
