"""Compact bit arrays and fixed-width register arrays.

Two storage primitives shared by the sketches:

* :class:`PackedBitArray` — a dense array of single bits with O(1) get/flip
  and an O(1) running count of set bits.  This backs both per-user odd
  sketches and the VOS shared array ``A`` (where the running popcount is
  exactly the paper's ``beta`` tracker, up to division by ``m``).
* :class:`PackedRegisters` — an array of fixed-width unsigned registers
  (e.g. 32-bit MinHash registers, b-bit fingerprints) stored in a numpy
  vector, with explicit accounting of the memory they represent.  The
  evaluation harness uses this accounting to put all methods under the same
  memory budget ``m = 32 * k * |U|`` bits, mirroring Section V of the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError


class PackedBitArray:
    """A mutable array of bits with an O(1) running population count.

    Bits are stored in a ``numpy.uint8`` vector (one byte per bit: on
    CPython the byte-per-bit layout is faster for the single-bit random
    access pattern of the sketches than real bit packing, while the
    *accounted* memory reported by :meth:`memory_bits` remains one bit per
    position, matching the paper's cost model).

    Examples
    --------
    >>> bits = PackedBitArray(8)
    >>> bits.flip(3)
    1
    >>> bits[3], bits.ones_count
    (1, 1)
    >>> bits.fraction_of_ones
    0.125
    """

    __slots__ = ("_bits", "_ones", "_version", "_generation", "_stamps")

    #: Bits per change-tracking word.  Matches the ``uint64`` lanes of the
    #: packed representation, so one changed word maps to exactly 8 bytes of
    #: :meth:`to_packed_bytes` output — the unit a delta checkpoint ships.
    WORD_BITS = 64

    #: The generation a fresh array starts at.  Stamp 0 means "never
    #: changed", so a cursor at this value collects every change ever made.
    FIRST_GENERATION = 1

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"bit array size must be positive, got {size}")
        self._bits = np.zeros(size, dtype=np.uint8)
        self._ones = 0
        self._version = 0
        # The change record: every word mutation writes the current
        # generation into the word's stamp.  Consumers (the journal, the
        # epoch publisher) each keep their own cursor and collect the words
        # stamped at or after it (:meth:`words_since`), then move the
        # generation on (:meth:`advance_generation`).  ``None`` means nothing
        # changed yet — the stamps are allocated on first mutation.
        self._generation = self.FIRST_GENERATION
        self._stamps = None

    @classmethod
    def from_byte_buffer(
        cls,
        bits: np.ndarray,
        *,
        ones_count: int | None = None,
        patch: tuple[np.ndarray, bytes] | None = None,
    ) -> "PackedBitArray":
        """Wrap an existing byte-per-bit ``uint8`` buffer without copying.

        The copy-on-write epoch path maps a shared arena file privately
        (``mmap.ACCESS_COPY``) and hands the mapping here; ``patch`` — a
        ``(word_indices, packed_bytes)`` pair in :meth:`apply_packed_words`
        form — is then written in place, touching only the patched pages.
        Patching at construction records no change: the result is a read
        copy that no consumer collects from.  ``ones_count`` skips the O(n)
        popcount when the caller already knows the unpatched count —
        downstream verification compares it against shipped counts.
        """
        if not isinstance(bits, np.ndarray) or bits.dtype != np.uint8 or bits.ndim != 1:
            raise ConfigurationError("from_byte_buffer expects a 1-d uint8 array")
        if bits.size == 0:
            raise ConfigurationError("bit array size must be positive, got 0")
        array = cls.__new__(cls)
        array._bits = bits
        array._ones = int(bits.sum(dtype=np.int64)) if ones_count is None else int(ones_count)
        array._version = 0
        array._generation = cls.FIRST_GENERATION
        array._stamps = None
        if patch is not None:
            array._write_words(*patch)
        return array

    def _stamp(self, words) -> None:
        if self._stamps is None:
            self._stamps = np.zeros(self.num_words, dtype=np.int64)
        # Fancy-index assignment tolerates duplicate word indices, so no
        # dedup pass is needed on the per-batch hot path.
        self._stamps[words] = self._generation

    def _stamp_all(self) -> None:
        self._stamps = np.full(self.num_words, self._generation, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._bits.shape[0])

    def __getitem__(self, index: int) -> int:
        return int(self._bits[index])

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self._bits)

    @property
    def ones_count(self) -> int:
        """Number of bits currently set to 1."""
        return self._ones

    @property
    def fraction_of_ones(self) -> float:
        """Fraction of set bits — the quantity the paper calls ``beta``."""
        return self._ones / len(self)

    @property
    def version(self) -> int:
        """Counter bumped on every mutation.

        Readers that cache derived views of the bits (e.g. the VOS query path
        caching users' recovered sketch rows) compare versions to detect that
        the array changed underneath them.  Two equal versions guarantee the
        bits are unchanged; unequal versions say nothing about how much
        changed.
        """
        return self._version

    @property
    def num_words(self) -> int:
        """Number of 64-bit words covering the array (``ceil(size / 64)``)."""
        return (len(self._bits) + self.WORD_BITS - 1) // self.WORD_BITS

    @property
    def generation(self) -> int:
        """The generation mutations are stamped with right now.

        Only ever increases, and only through :meth:`advance_generation` —
        independent of :attr:`version`, so taking a cursor never invalidates
        caches keyed on the version.
        """
        return self._generation

    def advance_generation(self) -> int:
        """Start a new generation and return it (a consumer's next cursor).

        Every mutation before this call carries a stamp below the returned
        value, every mutation after it a stamp equal to it.
        """
        self._generation += 1
        return self._generation

    def words_since(self, cursor: int) -> np.ndarray:
        """Sorted indices of the words stamped at or after generation ``cursor``.

        A superset of the words whose bits differ from their state when
        ``cursor`` was taken (a toggle that a later toggle cancels still
        stamps its word).  Together with :meth:`packed_words` this is the
        write set a delta checkpoint or an epoch publish ships instead of the
        whole array.
        """
        if self._stamps is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._stamps >= cursor)

    def packed_words(self, word_indices) -> bytes:
        """The packed bytes of the listed 64-bit words (8 bytes per word).

        Word ``w`` covers bit positions ``[64w, 64w + 64)`` and serializes to
        bytes ``[8w, 8w + 8)`` of :meth:`to_packed_bytes` output; positions
        past the end of the array pack as zero pad bits, exactly as the full
        serialization pads them.
        """
        words = np.asarray(word_indices, dtype=np.int64).ravel()
        if words.size == 0:
            return b""
        if int(words.min()) < 0 or int(words.max()) >= self.num_words:
            raise ConfigurationError(
                f"word index out of range [0, {self.num_words}) in packed_words"
            )
        positions = words[:, None] * self.WORD_BITS + np.arange(self.WORD_BITS)
        in_range = positions < len(self._bits)
        bits = np.where(in_range, self._bits[np.minimum(positions, len(self._bits) - 1)], 0)
        return np.packbits(bits.astype(np.uint8), axis=1).tobytes()

    def apply_packed_words(self, word_indices, data: bytes) -> None:
        """Overwrite the listed words from :meth:`packed_words` bytes.

        This is the delta-replay primitive: the popcount is re-derived from
        the before/after bits of the touched words, so ``beta`` stays exact,
        and the words are stamped like any other mutation.
        """
        words = self._write_words(word_indices, data)
        if words.size:
            self._stamp(words)

    def _write_words(self, word_indices, data: bytes) -> np.ndarray:
        """Validate and write a :meth:`packed_words` payload; returns the words."""
        words = np.asarray(word_indices, dtype=np.int64).ravel()
        if len(data) != words.size * 8:
            raise ConfigurationError(
                f"packed word payload holds {len(data)} bytes, "
                f"expected {words.size * 8} for {words.size} words"
            )
        if words.size == 0:
            return words
        if int(words.min()) < 0 or int(words.max()) >= self.num_words:
            raise ConfigurationError(
                f"word index out of range [0, {self.num_words}) in apply_packed_words"
            )
        if np.unique(words).size != words.size:
            raise ConfigurationError("apply_packed_words requires distinct word indices")
        fresh = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8).reshape(words.size, 8), axis=1
        )
        positions = words[:, None] * self.WORD_BITS + np.arange(self.WORD_BITS)
        in_range = positions < len(self._bits)
        if int(fresh[~in_range].sum()) != 0:
            raise ConfigurationError(
                "packed word payload sets pad bits past the end of the array"
            )
        flat_positions = positions[in_range]
        flat_fresh = fresh[in_range]
        before = int(self._bits[flat_positions].sum(dtype=np.int64))
        self._bits[flat_positions] = flat_fresh
        self._ones += int(flat_fresh.sum(dtype=np.int64)) - before
        self._version += 1
        return words

    def set(self, index: int, value: int) -> None:
        """Set bit ``index`` to ``value`` (0 or 1), updating the popcount."""
        value = 1 if value else 0
        old = int(self._bits[index])
        if old != value:
            self._bits[index] = value
            self._ones += value - old
            self._version += 1
            self._stamp(index // self.WORD_BITS)

    def flip(self, index: int) -> int:
        """Xor bit ``index`` with 1 and return its new value."""
        new = int(self._bits[index]) ^ 1
        self._bits[index] = new
        self._ones += 1 if new else -1
        self._version += 1
        self._stamp(index // self.WORD_BITS)
        return new

    def xor_value(self, index: int, value: int) -> int:
        """Xor bit ``index`` with ``value`` (0 or 1) and return the new bit."""
        if value & 1:
            return self.flip(index)
        return int(self._bits[index])

    def gather(self, indices: Iterable[int]) -> np.ndarray:
        """Return the bits at ``indices`` as a ``numpy.uint8`` array.

        Accepts any iterable of positions; an index *array* of any shape takes
        a zero-copy fast path and the result preserves its shape, which is how
        the bulk query path reads a whole ``(n_users, k)`` position matrix in
        one call.
        """
        if isinstance(indices, np.ndarray):
            return self._bits[indices.astype(np.int64, copy=False)]
        idx = np.fromiter(indices, dtype=np.int64)
        return self._bits[idx]

    def xor_bulk(self, positions) -> int:
        """Xor 1 into every listed position at once, keeping the popcount exact.

        ``positions`` may contain repeats: toggling the same bit twice cancels,
        so repeated occurrences are folded modulo 2 (sort-based count fold)
        before a single vectorized xor is applied.  This is the bulk analogue
        of calling :meth:`flip` once per position and leaves the array in a
        bit-identical state.  Returns the number of bits actually flipped.
        """
        pos = np.asarray(positions, dtype=np.int64).ravel()
        if pos.size == 0:
            return 0
        if int(pos.min()) < 0 or int(pos.max()) >= len(self):
            raise IndexError(
                f"bit position out of range [0, {len(self)}) in xor_bulk"
            )
        # Sort-based fold: for the typical batch the position count is far
        # below the array length, so np.unique beats an array-length bincount.
        unique_positions, counts = np.unique(pos, return_counts=True)
        odd = unique_positions[(counts & 1).astype(bool)]
        if odd.size == 0:
            return 0
        previously_set = int(self._bits[odd].sum(dtype=np.int64))
        self._bits[odd] ^= 1
        self._ones += int(odd.size) - 2 * previously_set
        self._version += 1
        self._stamp(odd // self.WORD_BITS)
        return int(odd.size)

    def to_list(self) -> list[int]:
        """Return the bit values as a plain Python list."""
        return [int(b) for b in self._bits]

    def clear(self) -> None:
        """Reset every bit to zero."""
        self._bits[:] = 0
        self._ones = 0
        self._version += 1
        self._stamp_all()

    def bits_buffer(self) -> np.ndarray:
        """The raw byte-per-bit backing store (no copy).

        Exposed for the serving arena, which writes these bytes to an
        mmap-backed file once and then patches private per-epoch overlays.
        Treat the returned array as read-only unless you own the instance.
        """
        return self._bits

    def to_packed_bytes(self) -> bytes:
        """Serialize the bits 8-per-byte (``ceil(len/8)`` bytes, big-endian bit order)."""
        return np.packbits(self._bits).tobytes()

    def load_packed_bytes(self, data: bytes) -> None:
        """Restore state previously produced by :meth:`to_packed_bytes`.

        The byte string must describe exactly ``len(self)`` bits; the running
        popcount is recomputed so the round trip is bit-exact.
        """
        expected = (len(self) + 7) // 8
        if len(data) != expected:
            raise ConfigurationError(
                f"packed payload holds {len(data)} bytes, expected {expected}"
            )
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=len(self))
        self._bits = bits
        self._ones = int(bits.sum(dtype=np.int64))
        self._version += 1
        self._stamp_all()

    def memory_bits(self) -> int:
        """Memory this array accounts for under the paper's cost model (1 bit/position)."""
        return len(self)


class PackedRegisters:
    """A fixed-size array of unsigned registers with explicit width accounting.

    Parameters
    ----------
    count:
        Number of registers (``k`` in the sketches).
    width_bits:
        Nominal width of each register in bits; used for memory accounting
        (the backing store is a ``numpy.uint64`` vector regardless).
    empty_value:
        Sentinel stored in registers that have never been written (MinHash and
        OPH both need an "empty register" notion).
    """

    __slots__ = ("_values", "_width_bits", "_empty_value")

    def __init__(self, count: int, width_bits: int = 32, empty_value: int | None = None) -> None:
        if count <= 0:
            raise ConfigurationError(f"register count must be positive, got {count}")
        if width_bits <= 0 or width_bits > 64:
            raise ConfigurationError(
                f"register width must be in (0, 64], got {width_bits}"
            )
        if empty_value is None:
            empty_value = (1 << 64) - 1
        self._values = np.full(count, empty_value, dtype=np.uint64)
        self._width_bits = width_bits
        self._empty_value = empty_value

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __getitem__(self, index: int) -> int:
        return int(self._values[index])

    def __setitem__(self, index: int, value: int) -> None:
        self._values[index] = value

    @property
    def empty_value(self) -> int:
        return self._empty_value

    @property
    def width_bits(self) -> int:
        return self._width_bits

    def is_empty(self, index: int) -> bool:
        """True if register ``index`` has never been written (or was reset)."""
        return int(self._values[index]) == self._empty_value

    def reset(self, index: int) -> None:
        """Mark register ``index`` as empty again."""
        self._values[index] = self._empty_value

    def non_empty_count(self) -> int:
        """Number of registers holding a real value."""
        return int(np.count_nonzero(self._values != np.uint64(self._empty_value)))

    def to_list(self) -> list[int | None]:
        """Return register values with ``None`` in place of empty registers."""
        return [None if v == self._empty_value else int(v) for v in self._values]

    def memory_bits(self) -> int:
        """Memory accounted under the paper's cost model (``count * width_bits``)."""
        return len(self) * self._width_bits
