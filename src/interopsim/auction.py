"""Three-chain auction: Auctioneer on a ticket chain, Bidder contracts on
coin chains, wired through policies, the event bus, and general cross-chain
transactions.

The conclude flow is an agent task: it reads every bid through the
transaction layer (prefix reads guard against late-bid phantoms), picks the
winner under exact rational exchange rates, and settles everything in one
2PC commit: ticket ownership, winner escrow deduction credited to the
seller, loser refunds, and status flips on all chains.  Its verified reads
go out in one concurrent wave, costing one request and one response leg:
a prefix read of the auction record on the ticket chain, and of the bids,
escrows and balances on every bidder chain, whose rows give every value the
settlement moves.  OCC then commits at once; locks mode first requests, in
one more wave, the write locks its prefix locks do not cover.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .bus import KIND_APP_BASE
from .chain import Chain, Contract, GenesisCall
from .errors import (
    AlreadyEscrowed,
    InsufficientFunds,
    NotOwner,
    TxnAborted,
    TypeMismatch,
)
from .sim import Future, Simulation
from .txn import Aborted, MODE_OCC, XTxn, XTxnEngine
from .values import Value, decode_record, encode_record, record

KIND_START = KIND_APP_BASE  # auction-start notification to Bidder contracts


@record
class AuctionStart:
    """The payload of a KIND_START event."""

    auction_id: str
    close_height: int


@record
class AuctionOutcome:
    status: str  # concluded | cancelled
    winner_chain: str = ""
    winner_user: str = ""
    winner_amount: int = 0  # normalized, common units
    attempts: int = 1


class AuctioneerContract(Contract):
    contract_id = "Auctioneer"

    def _init(self, ctx, args):
        # args: comma-separated "<chain>:<contract>" bidder endpoints
        ctx.put("config.bidders", args[0])

    def _mint_ticket(self, ctx, args):
        ticket_id, owner = args
        ctx.put(f"ticket.{ticket_id}.owner", owner)
        ctx.put(f"ticket.{ticket_id}.escrowed", False)

    def _start_auction(self, ctx, args):
        ticket_id, auction_id, close_height = args
        if type(close_height) is not int:  # a bool too: bidders decode an int
            raise TypeMismatch(f"close height {close_height!r} is not an int")
        owner = ctx.get(f"ticket.{ticket_id}.owner")
        if owner != ctx.caller_id:
            raise NotOwner(f"{ctx.caller_id} does not own {ticket_id}")
        if ctx.get(f"ticket.{ticket_id}.escrowed") is True:
            raise AlreadyEscrowed(ticket_id)
        ctx.put(f"ticket.{ticket_id}.escrowed", True)
        ctx.put(f"auction.{auction_id}.ticket", ticket_id)
        ctx.put(f"auction.{auction_id}.seller", ctx.caller_id)
        ctx.put(f"auction.{auction_id}.status", "open")
        ctx.put(f"auction.{auction_id}.close_height", close_height)
        payload = encode_record(AuctionStart(auction_id, close_height))
        for endpoint in (ctx.get("config.bidders") or "").split(","):
            if not endpoint:
                continue
            chain_id, contract = endpoint.split(":")
            ctx.emit(chain_id, contract, KIND_START, payload)

    handlers = {
        "init": _init,
        "mint_ticket": _mint_ticket,
        "start_auction": _start_auction,
    }


class BidderContract(Contract):
    contract_id = "Bidder"

    def _init(self, ctx, args):
        # args: alternating user, balance pairs
        for i in range(0, len(args), 2):
            ctx.put(f"balance.{args[i]}", args[i + 1])

    def _submit_bid(self, ctx, args):
        auction_id, amount = args
        user = ctx.caller_id
        # the bid write is on behalf of the caller: delegate to the policy
        ctx.require_access("write", f"bids.{user}")
        if ctx.get("auction.id") != auction_id:
            raise TxnAborted(f"unknown auction {auction_id}")
        balance = ctx.get(f"balance.{user}") or 0
        if balance < amount:
            raise InsufficientFunds(f"{user}: {balance} < {amount}")
        ctx.put(f"balance.{user}", balance - amount)
        ctx.put(f"escrow.{user}", (ctx.get(f"escrow.{user}") or 0) + amount)
        ctx.put(f"bids.{user}", amount)

    handlers = {"init": _init, "submit_bid": _submit_bid}

    def on_event(self, ctx, event):
        if event.kind != KIND_START:
            raise TxnAborted(f"unexpected event kind {event.kind}")
        ctx.require_access("invoke", "start_auction")
        start = decode_record(event.payload, AuctionStart)
        ctx.put("auction.id", start.auction_id)
        ctx.put("auction.status", "open")
        ctx.put("auction.close_height", start.close_height)
        ctx.put(f"auctions.{start.auction_id}", ctx.height)


# settlement rules the Bidder chains attach on top of the user-facing policy
SETTLEMENT_RULES = """
allow read on bids.* when caller.chain == "{tickets}";
allow read on escrow.* when caller.chain == "{tickets}";
allow read on balance.* when caller.chain == "{tickets}";
allow write on bids.* when caller.chain == "{tickets}";
allow write on escrow.* when caller.chain == "{tickets}";
allow write on balance.* when caller.chain == "{tickets}";
allow write on auction.* when caller.chain == "{tickets}";
"""


def bidder_policy(ticket_chain: str, start_limit: int = 3, window: int = 100) -> str:
    p1 = (
        'allow write on bids.* when state("auction.status") == "open" && '
        '!exists("bids." + caller.id) && block.height <= state("auction.close_height");'
    )
    p2 = (
        f'allow invoke on start_auction when count("auctions.", '
        f"block.height - {window}, block.height) <= {start_limit};"
    )
    return p1 + "\n" + p2 + "\n" + SETTLEMENT_RULES.format(tickets=ticket_chain)


class AuctionApp:
    """Scenario-facing facade over the three-chain auction deployment."""

    def __init__(
        self,
        sim: Simulation,
        engine: XTxnEngine,
        ticket_chain: str,
        bidder_chains: list[str],
        rates: dict[str, Fraction],
    ):
        self.sim = sim
        self.engine = engine
        self.ticket_chain = ticket_chain
        self.bidder_chains = list(bidder_chains)
        self.rates = dict(rates)

    # ------------------------------------------------------------- setup

    @staticmethod
    def genesis(
        ticket_chain: str,
        bidder_chains: list[str],
        balances: dict[str, dict[str, int]],
        tickets: dict[str, str],
        start_limit: int = 3,
    ) -> dict[str, tuple[list[Contract], list[GenesisCall]]]:
        """Each chain's block 0, as (contracts, calls) for `Simulation.add_chain`.

        A chain that is both the ticket chain and a bidder chain holds both
        contracts and both sets of calls."""
        endpoints = ",".join(f"{cid}:Bidder" for cid in bidder_chains)
        calls: list[GenesisCall] = [("sys", "Auctioneer", "init", [endpoints])]
        calls += [("sys", "Auctioneer", "mint_ticket", [tid, owner]) for tid, owner in tickets.items()]
        out = {ticket_chain: ([AuctioneerContract()], calls)}
        policy = bidder_policy(ticket_chain, start_limit=start_limit)
        for cid in bidder_chains:
            contracts, calls = out.setdefault(cid, ([], []))
            contracts.append(BidderContract())
            init_args = [x for user, balance in sorted(balances.get(cid, {}).items()) for x in (user, balance)]
            calls.append(("sys", "Bidder", "init", init_args))
            calls.append(("sys", "sys.policy", "attach", ["Bidder", policy]))
        return out

    # ----------------------------------------------------------- actions

    def start_auction(self, seller: str, ticket_id: str, auction_id: str, close_height: int):
        chain = self.sim.chains[self.ticket_chain]
        txid = chain.submit_call(
            seller, "Auctioneer", "start_auction", [ticket_id, auction_id, close_height]
        )
        self.sim.run_until_quiescent()
        receipt = self._receipt_of(chain, txid)
        opened = {
            cid: self.sim.chains[cid].read_state("Bidder.auction.status") == "open"
            for cid in self.bidder_chains
        }
        return receipt, opened

    def submit_bid(self, chain_id: str, user: str, auction_id: str, amount: int, settle: bool = True):
        chain = self.sim.chains[chain_id]
        txid = chain.submit_call(user, "Bidder", "submit_bid", [auction_id, amount])
        if settle:
            self.sim.run_until_quiescent()
            return self._receipt_of(chain, txid)
        return txid

    def _receipt_of(self, chain: Chain, txid: bytes):
        for block in reversed(chain.blocks):
            for receipt in block.receipts:
                if receipt.txn_id == txid:
                    return receipt
        return None

    # ---------------------------------------------------------- conclude

    def conclude_auction(self, auction_id: str, mode: str = MODE_OCC, retries: int = 3):
        task = self.sim.spawn(self.conclude_agent(auction_id, mode, retries))
        result = self.sim.pump(task.future)
        self.sim.run_until_quiescent()
        return result

    def conclude_agent(self, auction_id: str, mode: str = MODE_OCC, retries: int = 3):
        """Agent generator: drive the general transaction, retrying aborts.

        An attempt that raises aborts its transaction first, so a read that
        failed leaves no lock behind, nor one still in flight."""
        attempt = 0
        while True:
            attempt += 1
            t = self.engine.begin_general(self.ticket_chain, mode, caller_id="Auctioneer")
            try:
                outcome = yield from self._conclude_once(t, auction_id)
            except Exception as exc:
                self.engine.abort(t, str(exc))
                raise
            if outcome is not None:
                return replace(outcome, attempts=attempt)
            if attempt > retries:
                return AuctionOutcome(status="aborted", attempts=attempt)
            yield self.sim.sleep(5)

    def _conclude_once(self, t: XTxn, auction_id: str):
        """One settlement attempt; returns None when the commit aborted."""
        engine, tickets = self.engine, self.ticket_chain
        auction = f"Auctioneer.auction.{auction_id}."
        # one wave: the auction record, and every bidder chain's bids, escrows
        # and balances; a key with no row is 0
        auction_rows, *chain_rows = yield from _gather(
            [engine.txn_read_prefix_async(t, tickets, auction)]
            + [
                engine.txn_read_prefix_async(t, cid, f"Bidder.{name}.")
                for cid in self.bidder_chains
                for name in ("bids", "escrow", "balance")
            ]
        )
        record = {key: value for key, value, _ in auction_rows}
        status = record.get(auction + "status")
        if status != "open":
            raise TxnAborted(f"auction {auction_id} is {status!r}, not open")
        ticket_id, seller = record[auction + "ticket"], record[auction + "seller"]

        # collect bids: (normalized, bid_height, chain, user, native amount)
        candidates = []
        coin: dict[tuple[str, str], int] = {}  # (chain, key) -> escrow or balance
        for i, cid in enumerate(self.bidder_chains):
            bid_rows, escrow_rows, balance_rows = chain_rows[i * 3 : i * 3 + 3]
            coin.update(((cid, key), value) for key, value, _ in escrow_rows + balance_rows)
            rate = self.rates[cid]
            for key, amount, version in bid_rows:
                user = key.rsplit(".", 1)[1]
                candidates.append((Fraction(amount) * rate, version[0], cid, user, amount))

        writes: dict[tuple[str, str], Value] = {}
        if not candidates:
            outcome = AuctionOutcome(status="cancelled")
            writes[(tickets, auction + "status")] = "cancelled"
            writes[(tickets, f"Auctioneer.ticket.{ticket_id}.escrowed")] = False
            for cid in self.bidder_chains:
                writes[(cid, "Bidder.auction.status")] = "cancelled"
        else:
            # max normalized amount; ties: earlier bid height, then (chain, user)
            norm, _, win_chain, win_user, _ = min(candidates, key=lambda c: (-c[0], c[1], c[2], c[3]))
            norm_int = int(norm.numerator // norm.denominator)
            outcome = AuctionOutcome("concluded", win_chain, win_user, norm_int)
            for _, _, cid, user, amount in candidates:
                # the winning escrow pays the seller on its own chain; a loser's
                # is refunded; a seller who also bid and lost is credited twice
                payee = seller if (cid, user) == (win_chain, win_user) else user
                for key, delta in ((f"Bidder.escrow.{user}", -amount), (f"Bidder.balance.{payee}", amount)):
                    writes[(cid, key)] = writes.get((cid, key), coin.get((cid, key), 0)) + delta
                writes[(cid, f"Bidder.bids.{user}")] = None
            for cid in self.bidder_chains:
                writes[(cid, "Bidder.auction.status")] = "concluded"
            writes[(tickets, f"Auctioneer.ticket.{ticket_id}.owner")] = win_user
            writes[(tickets, f"Auctioneer.ticket.{ticket_id}.escrowed")] = False
            for name, value in (
                ("status", "concluded"),
                ("winner_user", win_user),
                ("winner_chain", win_chain),
                ("winner_amount", norm_int),
            ):
                writes[(tickets, auction + name)] = value
            writes[(tickets, f"Auctioneer.winning_bids.{auction_id}")] = norm_int

        # OCC buffers every write at once; locks mode requests, in one more
        # wave, the write locks its prefix locks do not cover
        yield from _gather([engine.txn_write_async(t, cid, key, value) for (cid, key), value in writes.items()])

        result = yield engine.txn_commit_async(t)
        if isinstance(result, Aborted):
            return None
        return outcome


def _gather(futures: list[Future]):
    """Wait for every future, all started already; returns their values in order.

    A future leaves the list before it is awaited: this frame is in the
    traceback of the error an awaited future throws, and must not hold that
    future, whose `error` it is."""
    futures = futures[::-1]
    values = []
    while futures:
        values.append((yield futures.pop()))
    return values
