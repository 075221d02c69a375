"""Word Count over a large mapped document.

Variable-length records (words), 100% of mapped data read, nothing
modified. The kernel streams bytes, builds a rolling hash per word, and
accumulates into a resident count table (the paper notes the centralized
hash table's synchronization burden makes this computation-dominant).

The address stream is a perfect stride-1 byte walk, so pattern recognition
replaces 8-byte-per-1-byte address traffic with one descriptor — the
largest Table II win (66%).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.apps.base import AccessProfile, AppData, Application, register
from repro.apps.datagen import make_text
from repro.kernelc.codegen import ExecutionContext
from repro.kernelc.ir import (
    Assign,
    AtomicAdd,
    BinOp,
    Const,
    For,
    If,
    Kernel,
    Load,
    MappedRef,
    RecordSchema,
    Var,
)
from repro.units import GB

BYTES = RecordSchema.bytes_schema()

#: hash-table size (resident)
TABLE_SIZE = 1 << 16
#: rolling-hash modulus (uint32 wraparound)
HASH_MOD = 1 << 32
SEP = 32  # space


def _word_hashes(text: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Vectorized rolling hash of every word fully inside [lo, hi).

    h = (h * 31 + c) mod 2^32, folded to the table size by the caller.
    """
    seg = text[lo:hi]
    is_sep = seg == SEP
    is_char = ~is_sep
    if not is_char.any():
        return np.empty(0, dtype=np.uint32)
    prev_sep = np.empty(seg.size, dtype=bool)
    prev_sep[0] = True
    prev_sep[1:] = is_sep[:-1]
    starts = np.nonzero(is_char & prev_sep)[0]
    # word lengths: distance to the next separator
    sep_pos = np.nonzero(is_sep)[0]
    if sep_pos.size:
        next_sep = np.searchsorted(sep_pos, starts)
        word_end = np.where(
            next_sep < sep_pos.size,
            sep_pos[np.minimum(next_sep, sep_pos.size - 1)],
            seg.size,
        )
    else:
        word_end = np.full(starts.shape, seg.size)
    lengths = word_end - starts
    h = np.zeros(starts.size, dtype=np.uint32)
    maxlen = int(lengths.max()) if lengths.size else 0
    for j in range(maxlen):
        mask = j < lengths
        idx = starts[mask] + j
        h[mask] = h[mask] * np.uint32(31) + seg[idx].astype(np.uint32)
    return h


@register
class WordCountApp(Application):
    """Hash-table word counting over streamed text."""

    name = "wordcount"
    display_name = "Word Count"
    paper_data_bytes = int(4.5 * GB)
    writes_mapped = False
    #: the running hash/length (h, n) are loop-carried across records, so
    #: the vectorized backend rejects this kernel by design
    compiled_expected = False
    #: integer counts over separator-aligned chunks
    output_chunk_invariant = True

    # ------------------------------------------------------------- data
    def generate(self, n_bytes: Optional[int] = None, seed: int = 0) -> AppData:
        n_bytes = n_bytes or self.default_bytes()
        rng = np.random.default_rng(seed)
        text = make_text(rng, n_bytes)
        arr = np.zeros(text.size, dtype=BYTES.numpy_dtype())
        arr["byte"] = text
        words = int(np.count_nonzero(text == SEP))
        avg_record = text.size / max(words, 1)
        return AppData(
            app=self.name,
            mapped={"text": arr},
            schemas={"text": BYTES},
            resident={"counts": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params={"n": text.size},
            primary="text",
            meta={"avg_record": avg_record, "n_words": words},
        )

    # ----------------------------------------------------- vectorized kernel
    def make_state(self, data: AppData) -> Any:
        return {"counts": np.zeros(TABLE_SIZE, dtype=np.int64)}

    def process_chunk(self, data: AppData, state: Any, lo: int, hi: int) -> None:
        text = data.mapped["text"]["byte"]
        h = _word_hashes(text, lo, hi)
        np.add.at(state["counts"], (h % TABLE_SIZE).astype(np.int64), 1)

    def finalize(self, data: AppData, state: Any) -> np.ndarray:
        return state["counts"]

    def outputs_equal(self, a: Any, b: Any) -> bool:
        return bool(np.array_equal(a, b))

    # ------------------------------------------------------------ chunking
    def chunk_bounds(self, data: AppData, chunk_units: int) -> list[tuple[int, int]]:
        """Byte chunks aligned to separators so words never straddle."""
        text = data.mapped["text"]["byte"]
        n = text.size
        bounds = []
        lo = 0
        while lo < n:
            hi = min(lo + chunk_units, n)
            if hi < n:
                # advance to just past the next separator
                nxt = np.nonzero(text[hi:] == SEP)[0]
                hi = (hi + int(nxt[0]) + 1) if nxt.size else n
            bounds.append((lo, hi))
            lo = hi
        return bounds

    # ---------------------------------------------------- characterization
    def access_profile(self, data: AppData) -> AccessProfile:
        # NOTE: processing units are BYTES for this app, so the profile is
        # per byte (read fraction 100%, Table I); avg word length only
        # affects the amortized per-word table-update cost.
        avg = float(data.meta.get("avg_record", 8.0))
        return AccessProfile(
            record_bytes=1.0,
            read_bytes_per_record=1.0,  # every byte is read
            write_bytes_per_record=0.0,
            reads_per_record=1.0,
            writes_per_record=0.0,
            elem_bytes=1,
            # per byte: compare + hash multiply-add; per word: a centralized
            # hash-table update with synchronization (the paper's
            # dominant-computation cause), amortized over the word's bytes
            # per-byte branching diverges within warps and the table
            # updates serialize on atomics: the op count is
            # divergence-adjusted (the paper's dominant-computation cause)
            gpu_ops_per_record=24.0 + 120.0 / avg,
            cpu_ops_per_record=32.0 + 64.0 / avg,
            resident_bytes_per_record=8.0 / avg,
            pattern_friendly=True,  # stride-1 bytes
            sliceable=True,
            variable_length=True,
            gather_granularity_bytes=4096.0,  # stride-1 runs bulk-copy
            gpu_divergence=24.0,  # per-byte branches + table atomics
        )

    def n_units(self, data: AppData) -> int:
        return int(data.mapped["text"].shape[0])

    def chunk_read_offsets(self, data: AppData, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.int64)

    # ------------------------------------------------------- compiler path
    def kernel(self) -> Kernel:
        c = Var("c")
        body = (
            Assign("h", Const(0)),
            Assign("n", Const(0)),
            For(
                "i",
                Var("start"),
                Var("end"),
                (
                    Assign("c", Load(MappedRef("text", Var("i"), "byte"))),
                    If(
                        BinOp("==", c, Const(SEP)),
                        (
                            If(
                                BinOp(">", Var("n"), Const(0)),
                                (
                                    AtomicAdd(
                                        "counts",
                                        BinOp("%", Var("h"), Const(TABLE_SIZE)),
                                        Const(1),
                                    ),
                                ),
                            ),
                            Assign("h", Const(0)),
                            Assign("n", Const(0)),
                        ),
                        (
                            Assign(
                                "h",
                                BinOp(
                                    "%",
                                    BinOp(
                                        "+", BinOp("*", Var("h"), Const(31)), c
                                    ),
                                    Const(HASH_MOD),
                                ),
                            ),
                            Assign("n", BinOp("+", Var("n"), Const(1))),
                        ),
                    ),
                ),
            ),
        )
        return Kernel(
            name="wordCountKernel",
            body=body,
            mapped={"text": BYTES},
            resident=("counts",),
        )

    def make_ir_context(self, data: AppData) -> ExecutionContext:
        return ExecutionContext(
            mapped={"text": data.mapped["text"]},
            resident={"counts": np.zeros(TABLE_SIZE, dtype=np.int64)},
            params=dict(data.params),
        )

    def ir_output(self, data: AppData, ctx: ExecutionContext) -> np.ndarray:
        return ctx.resident["counts"]
