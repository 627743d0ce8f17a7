"""Independent reference implementations used across tests.

The brute-force oracles enumerate outcomes directly instead of reusing any
library code path, so agreement between the two is meaningful evidence.  The
loop references (:func:`greedy_hdi_reference`,
:func:`aggregate_ratio_masses_reference`) keep the straightforward former
implementations of two vectorised library routines, which must agree with
them bit for bit.  :func:`poisson_binomial_dp` is the former Poisson
binomial constructor, one convolution per parameter over the full count
range; :func:`estimate_confusion_dp` builds a window's count PMFs with it,
untrimmed.  :func:`poisson_binomial_cf` builds the same PMF by a third,
independent route, the discrete characteristic function.  The untrimmed
derivations (:func:`recall_distribution_untrimmed`,
:func:`f1_distribution_untrimmed`) push every pair of the full
0..n_pos x 0..n_neg count grid through the metric formula, as the library
did before it trimmed the count PMFs' tails; the library's trimmed results
must stay within the trimming bound of these references, and equal them bit
for bit when nothing was trimmed.  :func:`pair_mass_reference` reads one
recall or F1 probability from the count PMFs without forming the pair grid,
which the whole-file derivation must match bit for bit at sizes where the
untrimmed references cannot run.  :func:`run_to_json_reference`
builds a run's report document as a dict, the form the report writer's
text is pinned to, and :func:`shortcut_points_reference` computes one
window's shortcut points from reductions of that window's own arrays,
which the one-pass shortcut windows must match bit for bit.
:func:`convergence_rows_reference` and :func:`coverage_rows_reference` run
the experiments one trial at a time through ``estimate_all`` and ``hdis``,
as the runners did before they estimated chunks of trials together; the
runners' rows must equal theirs.  Two helpers stand in
for library conveniences that only tests needed: :func:`distribution`
builds a distribution from a mapping of support values to probabilities,
and :func:`run_to_json` parses a run's report text.
:func:`record_chunks` records the chunks of the exact stream.
"""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from confmetrics import confusion, experiments, metrics, reports
from confmetrics._checks import unit_interval_array
from confmetrics.confusion import estimate_confusion
from confmetrics.intervals import hdis
from confmetrics.distribution import CountPMF, DiscreteDistribution
from confmetrics.reports import render_report


def distribution(pmf):
    """A distribution over the keys of ``pmf``, each taken as
    ``Fraction(key)``, with the probabilities it maps them to, built by
    the one constructor the library has."""
    items = sorted((Fraction(key), p) for key, p in pmf.items())
    assert all(abs(v.numerator) <= 2**53 and v.denominator <= 2**53 for v, _ in items)
    return DiscreteDistribution._from_ratio_arrays(
        [v.numerator for v, _ in items],
        [v.denominator for v, _ in items],
        [p for _, p in items],
    )


def poisson_binomial_dp(params):
    """PMF of a sum of n independent Bernoulli variables, by one direct
    convolution per parameter, as a read-only array of length n + 1 indexed
    by count.  O(n^2) work; an empty parameter list yields ``[1.0]``."""
    pmf = np.array([1.0])
    for p in np.sort(unit_interval_array(params, "Bernoulli parameter")):
        pmf = np.convolve(pmf, (1.0 - p, p))
    pmf.flags.writeable = False
    return pmf


# Renormalising the characteristic-function PMF may move at most this much
# total mass; anything larger indicates a numerically broken transform.
_CF_RENORM_TOL = 1e-8


def poisson_binomial_cf(params):
    """PMF of a sum of n independent Bernoulli variables, via the
    characteristic function evaluated on the discrete Fourier grid, as a
    read-only count PMF of length n + 1.

    Independent of the library's product tree; the two agree within 1e-9
    per entry.  The transform can leave tiny negative values, which are
    clamped to zero before renormalising; a normalisation shift beyond
    ``_CF_RENORM_TOL`` total mass is rejected as a numerical failure.
    Evaluating the characteristic function costs O(n^2); the final
    transform is O(n log n).
    """
    arr = np.sort(unit_interval_array(params, "Bernoulli parameter"))
    m = arr.size + 1
    phase = np.exp(2j * np.pi * np.arange(m) / m)
    phi = np.ones(m, dtype=np.complex128)
    for p in arr:
        phi *= (1.0 - p) + p * phase
    raw = np.fft.fft(phi).real / m
    clamped = np.where(raw < 0.0, 0.0, raw)
    total = float(clamped.sum())
    if abs(total - 1.0) > _CF_RENORM_TOL:
        raise ValueError(
            f"characteristic-function PMF lost {abs(total - 1.0):.3g} mass; "
            "refusing to renormalise"
        )
    pmf = clamped / total
    pmf.flags.writeable = False
    return pmf


def expand(counts, n):
    """A CountPMF over 0..n as a full-length array, zeros outside its range."""
    full = np.zeros(n + 1)
    full[counts.offset : counts.offset + counts.pmf.size] = counts.pmf
    return full


def poisson_binomial_dp_counts(params):
    """The :func:`poisson_binomial_dp` PMF as a full-length, untrimmed
    CountPMF."""
    return CountPMF(0, poisson_binomial_dp(params), 0.0)


def estimate_confusion_dp(batch):
    """The window's confusion estimate with full-length, untrimmed count
    PMFs built by :func:`poisson_binomial_dp`."""
    return dataclasses.replace(
        estimate_confusion(batch),
        tp=poisson_binomial_dp_counts(batch.positive_scores),
        tn=poisson_binomial_dp_counts(1.0 - batch.negative_scores),
    )


def enumerate_poisson_binomial(params):
    """PMF of a sum of independent Bernoullis by enumerating all 2^n outcomes."""
    pmf = {}
    n = len(params)
    for bits in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for b, p in zip(bits, params):
            weight *= p if b else 1.0 - p
        k = sum(bits)
        pmf[k] = pmf.get(k, 0.0) + weight
    return pmf


def enumerate_metric_distributions(predictions, scores):
    """Exact metric distributions by enumerating every label assignment.

    Labels are weighted by the product of per-record Bernoulli(score)
    probabilities.  Realized metrics follow the plain confusion-matrix
    definitions; realized recall with an empty positive class counts as 0,
    and precision/F1 are None when there are no positive predictions.
    """
    n = len(predictions)
    n_pos = sum(predictions)
    dists = {"accuracy": {}, "recall": {}}
    if n_pos:
        dists["precision"] = {}
        dists["f1"] = {}
    for labels in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for y, s in zip(labels, scores):
            weight *= s if y else 1.0 - s
        tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
        fp = n_pos - tp
        fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
        tn = n - n_pos - fn
        values = {
            "accuracy": Fraction(tp + tn, n),
            "recall": Fraction(tp, tp + fn) if tp + fn else Fraction(0),
        }
        if n_pos:
            values["precision"] = Fraction(tp, n_pos)
            values["f1"] = Fraction(2 * tp, 2 * tp + fp + fn)
        for metric, value in values.items():
            dists[metric][value] = dists[metric].get(value, 0.0) + weight
    if not n_pos:
        dists["precision"] = None
        dists["f1"] = None
    return dists


def tv_distance(dist, reference):
    """Total variation distance between a DiscreteDistribution and a
    Fraction-keyed mapping."""
    ours = dist.as_dict()
    keys = set(ours) | set(reference)
    return 0.5 * sum(abs(ours.get(k, 0.0) - reference.get(k, 0.0)) for k in keys)


def contiguous_spans(values, probs, alpha):
    """All contiguous index spans holding at least 1 - alpha of the mass."""
    cumulative = np.concatenate([[0.0], np.cumsum(probs)])
    need = 1.0 - alpha
    spans = []
    for lo in range(len(values)):
        for hi in range(lo, len(values)):
            mass = cumulative[hi + 1] - cumulative[lo]
            if mass >= need - 1e-12:
                spans.append((lo, hi))
    return spans


def random_small_batch(rng, max_n=12):
    """Random predictions and scores for oracle comparisons."""
    n = int(rng.integers(1, max_n + 1))
    predictions = rng.integers(0, 2, size=n)
    scores = rng.random(n)
    return predictions, scores


def greedy_hdi_reference(probs, alpha, trimmed_mass=0.0):
    """Two-pointer greedy HDI: (lo, hi) index bounds and covered mass.

    Drops the lighter endpoint (the upper one on a tie) while the dropped
    mass, which starts at ``trimmed_mass``, stays below alpha, then
    restores the latest drops while the kept points sum to less than
    1 - alpha.  When alpha exceeds the total mass it drops every point and
    crosses, returning lo > hi.
    """
    lo = 0
    hi = len(probs) - 1
    tail = trimmed_mass
    history = []
    while True:
        history.append((lo, hi))
        p_lo = probs[lo]
        p_hi = probs[hi]
        if p_lo < p_hi:
            if tail + p_lo < alpha:
                tail += p_lo
                lo += 1
            else:
                break
        else:
            if tail + p_hi < alpha:
                tail += p_hi
                hi -= 1
            else:
                break
    history.pop()
    covered = float(probs[lo : hi + 1].sum())
    while covered < 1.0 - alpha and history:
        lo, hi = history.pop()
        covered = float(probs[lo : hi + 1].sum())
    return lo, hi, covered


def aggregate_ratio_masses_reference(nums, dens, masses):
    """Reduced (nums, dens, probs) arrays, ascending by value, of unreduced
    ratio masses grouped by their gcd-reduced integer code."""
    g = np.gcd(nums, dens)
    nums = nums // g
    dens = dens // g
    # Reduced denominators are bounded, so a linear code uniquely keys a pair.
    width = int(dens.max()) + 1
    codes = nums * width + dens
    unique_codes, inverse = np.unique(codes, return_inverse=True)
    probs = np.bincount(inverse, weights=masses, minlength=unique_codes.size)
    u_nums = unique_codes // width
    u_dens = unique_codes % width
    order = np.argsort(u_nums / u_dens, kind="stable")
    return u_nums[order], u_dens[order], probs[order]


def _count_pairs_untrimmed(est, scale, offset):
    """``scale * i / (i + j + offset)`` over the full grid of i in
    0..n_pos true positives and j in 0..n_neg false negatives, with 0/0 read
    as 0, from the estimate's PMFs expanded to full length."""
    i = np.arange(est.n_pos + 1, dtype=np.int64)
    j = np.arange(est.n_neg + 1, dtype=np.int64)
    nums = np.broadcast_to(scale * i[:, None], (i.size, j.size)).ravel()
    dens = (i[:, None] + j[None, :] + offset).ravel()
    dens[dens == 0] = 1
    masses = np.outer(expand(est.tp, est.n_pos), expand(est.fn, est.n_neg)).ravel()
    return metrics._aggregate_ratio_masses(nums, dens, masses)


def recall_distribution_untrimmed(est):
    """Recall i / (i + j) over every count pair of the estimate's PMFs
    expanded to full length."""
    return _count_pairs_untrimmed(est, 1, 0)


def f1_distribution_untrimmed(est):
    """F1 2i / (i + j + n_pos) over every count pair of the estimate's PMFs
    expanded to full length; None without positive predictions."""
    if est.n_pos == 0:
        return None
    return _count_pairs_untrimmed(est, 2, est.n_pos)


def pair_mass_reference(est, scale, fixed, num, den):
    """The probability that ``scale * i / (i + j + fixed)``, over the pairs
    of i true positives and j false negatives in the estimate's kept count
    ranges, takes the positive value num/den, read without the pair grid.

    With a/b the value in lowest terms, the pair (i, j) lies on it when
    scale * b * i = a * (i + j + fixed), at j = ((scale * b - a) * i -
    a * fixed) / a; so row i >= 1 holds at most one such pair, and row 0
    none.  That j is an integer just when a divides scale * b * i, which,
    as a and b are coprime, is when a / gcd(a, scale) divides i.  The grid
    adds a value's masses in pair order, which is row-major, so the
    sequential sum of ``tp.pmf[i] * fn.pmf[j]`` over ascending i is its
    probability, bit for bit.  The index arithmetic is in Python ints,
    since numpy's int64 products wrap silently.
    """
    g = math.gcd(num, den)
    a, b = num // g, den // g
    step = a // math.gcd(a, scale)
    tp, fn = est.tp, est.fn
    first = -(-max(tp.offset, 1) // step) * step
    rows, columns = [], []
    for i in range(first, tp.offset + tp.pmf.size, step):
        j = ((scale * b - a) * i - a * fixed) // a
        if fn.offset <= j < fn.offset + fn.pmf.size:
            rows.append(i - tp.offset)
            columns.append(j - fn.offset)
    if not rows:
        return 0.0
    return float(np.cumsum(tp.pmf[rows] * fn.pmf[columns])[-1])


def tv_distance_between(a, b):
    """Total variation distance between two DiscreteDistributions, matching
    support points by float value (exact for denominators below 2**26)."""
    keys = np.union1d(a.float_values, b.float_values)
    pa = np.zeros(keys.size)
    pb = np.zeros(keys.size)
    pa[np.searchsorted(keys, a.float_values)] = a.probabilities
    pb[np.searchsorted(keys, b.float_values)] = b.probabilities
    return 0.5 * float(np.abs(pa - pb).sum())


def _estimate_to_json_reference(estimate, emit_distributions):
    hdi = estimate.hdi
    dist = estimate.distribution
    return {
        "metric": estimate.metric,
        "method": estimate.method,
        "point": estimate.point,
        "undefined": estimate.undefined,
        "hdi": None
        if hdi is None
        else {"lower": hdi.lower, "upper": hdi.upper, "alpha": hdi.alpha},
        "distribution": None
        if dist is None or not emit_distributions
        else [[num, den, prob] for num, den, prob in dist.ratios()],
    }


def run_to_json(run, emit_distributions=False):
    """One run's report document: the parsed ``render_report`` text."""
    return json.loads(render_report(run, emit_distributions))


def run_to_json_reference(reports, config, emit_distributions=False):
    """The report document as the library built it before it wrote the
    text directly; ``json.dumps(document, indent=2, sort_keys=True)`` of it
    is the text ``render_report`` must write."""
    return {
        "windows": [
            {
                "window_index": r.window_index,
                "window_size": r.window_size,
                "partial": r.partial,
                "estimates": [
                    _estimate_to_json_reference(e, emit_distributions) for e in r.estimates
                ],
            }
            for r in reports
        ],
        "config": {
            "metrics": list(config.metrics),
            "method": config.method,
            "alpha": config.alpha,
        },
    }


def shortcut_points_reference(batch):
    """The shortcut points of one window from one numpy reduction of the
    window's own arrays per quantity.

    The expected true positives are the sum of the scores masked to 0 at
    the negative predictions, not the sum of the positive scores alone:
    the library sums every window quantity as a full-length column, and
    the two sums can differ in the last place, because numpy's pairwise sum
    pairs different terms when the zeros are in place."""
    positive = batch.predictions == 1
    n_pos = int(positive.sum())
    tp = float(np.where(positive, batch.scores, 0.0).sum())
    total = float(batch.scores.sum())
    correct = np.where(positive, batch.scores, 1.0 - batch.scores)
    return {
        "accuracy": float(correct.mean()),
        "precision": tp / n_pos if n_pos else None,
        "recall": tp / total if total > 0.0 else None,
        "f1": 2.0 * tp / (total + n_pos) if n_pos else None,
    }


def convergence_rows_reference(window_sizes, trials, seed):
    """The convergence runner's rows, one trial at a time: each trial's
    exact and shortcut recall and F1 from ``estimate_all``."""
    rows = []
    for window in window_sizes:
        errors = {"recall": [], "f1": [], "control": []}
        for trial in range(trials):
            batch = experiments._trial_batch(seed, window, trial, with_labels=False)
            exact_recall, exact_f1 = (
                e.point for e in reports.estimate_all(batch, metrics=("recall", "f1"))
            )
            approx_recall, approx_f1 = (
                e.point
                for e in reports.estimate_all(batch, metrics=("recall", "f1"), method="shortcut")
            )
            if approx_recall is not None:
                errors["recall"].append(exact_recall - approx_recall)
                errors["control"].append(exact_recall - exact_recall)
            if exact_f1 is not None and approx_f1 is not None:
                errors["f1"].append(exact_f1 - approx_f1)
        rows += [experiments._summary(window, m, errors[m]) for m in ("recall", "f1", "control")]
    return rows


def coverage_rows_reference(window_sizes, trials, alphas, seed):
    """The coverage runner's rows, one trial at a time: each trial's
    realized metrics, then its ``estimate_all`` distributions and their
    ``hdis``."""
    rows = []
    for window in window_sizes:
        hits = {(m, a): 0 for m in metrics.METRICS for a in alphas}
        totals = dict.fromkeys(hits, 0)
        for trial in range(trials):
            batch = experiments._trial_batch(seed, window, trial, with_labels=True)
            realized = metrics.true_metrics(batch)
            for estimate in reports.estimate_all(batch):
                actual = getattr(realized, estimate.metric)
                if estimate.distribution is None or actual is None:
                    continue
                for alpha, interval in zip(alphas, hdis(estimate.distribution, alphas)):
                    totals[(estimate.metric, alpha)] += 1
                    if interval.lower - 1e-12 <= actual <= interval.upper + 1e-12:
                        hits[(estimate.metric, alpha)] += 1
        rows += [
            experiments.CoverageRow(
                window=window,
                metric=metric,
                alpha=alpha,
                trials=total,
                coverage=hits[(metric, alpha)] / total if total else float("nan"),
            )
            for (metric, alpha), total in totals.items()
        ]
    return rows


def record_chunks(monkeypatch) -> list[list[int]]:
    """Patch the Poisson binomial builder that the exact stream calls; the
    returned list gets, per call, the record counts of the batches behind
    it (each batch gives one TP and one TN parameter set)."""
    calls = []
    trees = confusion.poisson_binomial_trees

    def recorded(param_sets):
        sizes = [len(s) for s in param_sets]
        calls.append([tp + tn for tp, tn in zip(sizes[::2], sizes[1::2])])
        return trees(param_sets)

    monkeypatch.setattr(confusion, "poisson_binomial_trees", recorded)
    return calls
