"""PrivApprox core: the paper's primary contribution.

The core package implements the full PrivApprox pipeline from Section 3 of the
paper:

* the **query model** — SQL queries whose answers are histogram bucket
  vectors, plus window/frequency parameters and signing
  (:mod:`repro.core.query`);
* the **execution budget** interface that converts an analyst budget into the
  sampling parameter ``s`` and randomization parameters ``p, q``
  (:mod:`repro.core.budget`);
* **Step I** — client-side simple random sampling, plus
  :class:`~repro.core.sampling.StratifiedSampler` for populations whose
  strata differ (:mod:`repro.core.sampling`);
* **Step II** — randomized response and its estimator
  (:mod:`repro.core.randomized_response`), with the differential-privacy and
  zero-knowledge-privacy accounting in :mod:`repro.core.privacy`;
* **Step III** — XOR-based share splitting and transmission through proxies
  that relay and count, with no cost model (:mod:`repro.core.encryption`,
  :mod:`repro.core.client`, :mod:`repro.core.proxy`);
* **Step IV** — joining, decrypting, window aggregation and error estimation
  at the aggregator (:mod:`repro.core.aggregator`,
  :mod:`repro.core.estimation`);
* query distribution to the clients (:mod:`repro.core.distribution`) and
  the aggregator's admission and validation of answers
  (:mod:`repro.core.admission`, :mod:`repro.core.validation`);
* the practical enhancements — query inversion (:mod:`repro.core.inversion`)
  and historical/batch analytics over each epoch's stored randomized bits
  (:mod:`repro.core.historical`);
* :mod:`repro.core.system`, which wires clients, proxies, the aggregator and
  the analyst into a runnable end-to-end deployment.
"""

from repro.core.query import (
    Query,
    AnswerSpec,
    RangeBuckets,
    RuleBuckets,
    QueryAnswer,
)
from repro.core.budget import QueryBudget, ExecutionParameters, BudgetPlanner
from repro.core.sampling import (
    SimpleRandomSampler,
    StratifiedSampler,
    SamplingEstimate,
    estimate_sum,
)
from repro.core.randomized_response import (
    RandomizedResponder,
    estimate_true_yes,
    rr_accuracy_loss,
)
from repro.core.privacy import (
    randomized_response_epsilon,
    epsilon_from_probabilities,
    amplify_epsilon_by_sampling,
    zero_knowledge_epsilon,
    PrivacyAccountant,
)
from repro.core.estimation import (
    sampling_error_bound,
    estimated_variance,
    ErrorEstimator,
)
from repro.core.encryption import AnswerCodec, EncryptedAnswer
from repro.core.client import Client, ClientConfig, ClientResponse
from repro.core.proxy import Proxy, ProxyNetwork
from repro.core.aggregator import Aggregator, WindowResult
from repro.core.analyst import Analyst
from repro.core.inversion import invert_answer_vector, should_invert, InvertedEstimator
from repro.core.historical import HistoricalStore, HistoricalAnalytics
from repro.core.distribution import QueryDistributor, QueryAnnouncement
from repro.core.admission import AnswerAdmissionController, participation_token
from repro.core.validation import AnswerValidator, ValidationResult
from repro.core.system import PrivApproxSystem, SystemConfig, EpochReport

__all__ = [
    "Query",
    "AnswerSpec",
    "RangeBuckets",
    "RuleBuckets",
    "QueryAnswer",
    "QueryBudget",
    "ExecutionParameters",
    "BudgetPlanner",
    "SimpleRandomSampler",
    "StratifiedSampler",
    "SamplingEstimate",
    "estimate_sum",
    "RandomizedResponder",
    "estimate_true_yes",
    "rr_accuracy_loss",
    "randomized_response_epsilon",
    "epsilon_from_probabilities",
    "amplify_epsilon_by_sampling",
    "zero_knowledge_epsilon",
    "PrivacyAccountant",
    "sampling_error_bound",
    "estimated_variance",
    "ErrorEstimator",
    "AnswerCodec",
    "EncryptedAnswer",
    "Client",
    "ClientConfig",
    "ClientResponse",
    "Proxy",
    "ProxyNetwork",
    "Aggregator",
    "WindowResult",
    "Analyst",
    "invert_answer_vector",
    "should_invert",
    "InvertedEstimator",
    "HistoricalStore",
    "HistoricalAnalytics",
    "QueryDistributor",
    "QueryAnnouncement",
    "AnswerAdmissionController",
    "participation_token",
    "AnswerValidator",
    "ValidationResult",
    "PrivApproxSystem",
    "SystemConfig",
    "EpochReport",
]
