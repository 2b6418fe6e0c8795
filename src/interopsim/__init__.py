"""interopsim: deterministic simulator for cross-chain access control,
transactions, and messaging between permissioned blockchains."""

from .bus import (
    Broker,
    BrokerFaults,
    Event,
    Gateway,
    KeyRegistry,
    SignedEventBatch,
)
from .chain import (
    Behavior,
    Block,
    BlockHeader,
    Chain,
    ChainConfig,
    Contract,
    QuorumCert,
    Receipt,
    Transaction,
)
from .errors import SimError
from .merkle import MerkleMap, MerkleProof, verify_proof
from .policy import AccessRequest, AggExpr, Decision, eval_aggregate, evaluate, parse_policy, print_policy
from .sim import Future, SimConfig, Simulation
from .txn import (
    Aborted,
    Committed,
    MiniTxn,
    MODE_LOCKS,
    MODE_OCC,
    ReadRequest,
    ReadResponse,
    XTxn,
    XTxnEngine,
)

__version__ = "0.1.0"
