"""Substitutions on finite alphabets, their languages, and blow-ups.

Letters are strings (so that blow-up letters, which stand for length-n
words, are first-class letters themselves); words are tuples of letter
indices.  A substitution maps each letter to a finite word and extends to
words by concatenation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    CapExceededError,
    ImageOverflowError,
    ImageTooShortError,
    NotExpandingError,
    ParseError,
)
from .matrices import ExactMatrix, _frobenius_partition, is_expanding, scc_blocks

Word = tuple[int, ...]

#: safety bound on the length of any single image produced by a power
MAX_IMAGE_LENGTH = 10**7


class Alphabet:
    """Ordered finite set of distinct letters; order fixes the coordinate
    correspondence with matrix indices."""

    __slots__ = ("letters", "_index", "_single_char")

    def __init__(self, letters: Iterable[str]):
        self.letters = tuple(letters)
        if not self.letters:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")
        for ltr in self.letters:
            if not ltr or any(ch.isspace() for ch in ltr):
                raise ValueError(f"invalid letter {ltr!r}")
        self._index = {ltr: k for k, ltr in enumerate(self.letters)}
        self._single_char = all(len(ltr) == 1 for ltr in self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({list(self.letters)})"

    def index_of(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise ParseError(f"unknown letter {letter!r}") from None

    def encode(self, text: str) -> Word:
        """Parse a word: whitespace-separated letters, or one letter per
        character when every letter is a single character."""
        tokens = text.split()
        if len(tokens) != 1:
            return tuple(self.index_of(t) for t in tokens)
        tok = tokens[0]
        if tok in self._index:
            return (self._index[tok],)
        if self._single_char:
            return tuple(self.index_of(ch) for ch in tok)
        return (self.index_of(tok),)

    def decode(self, word: Sequence[int]) -> str:
        sep = "" if self._single_char else " "
        return sep.join(self.letters[i] for i in word)


class Substitution:
    """A map letter -> word over a fixed alphabet, extended to words by
    concatenation.  Erasing or non-expanding substitutions are
    representable; the analytic operations reject them at their gates."""

    __slots__ = ("alphabet", "images")

    def __init__(self, alphabet: Alphabet, images: Sequence[Sequence[int]]):
        if len(images) != len(alphabet):
            raise ValueError("one image per letter required")
        imgs = tuple(tuple(int(i) for i in img) for img in images)
        for img in imgs:
            for i in img:
                if not 0 <= i < len(alphabet):
                    raise ValueError(f"letter index {i} out of range")
        self.alphabet = alphabet
        self.images = imgs

    @classmethod
    def from_rules(cls, rules: Sequence[tuple[str, str]]) -> "Substitution":
        """Build from (letter, image) string pairs; letter order of first
        appearance fixes the coordinates."""
        return _from_rule_pairs(rules)

    def __eq__(self, other):
        return (isinstance(other, Substitution)
                and self.alphabet == other.alphabet
                and self.images == other.images)

    def __repr__(self):
        rules = ", ".join(
            f"{ltr}->{self.alphabet.decode(img)}"
            for ltr, img in zip(self.alphabet.letters, self.images)
        )
        return f"Substitution({rules})"

    def apply(self, word: Sequence[int]) -> Word:
        out: list[int] = []
        for i in word:
            out.extend(self.images[i])
        return tuple(out)

    def apply_str(self, text: str) -> str:
        return self.alphabet.decode(self.apply(self.alphabet.encode(text)))

    def _guarded_apply(self, word: Sequence[int]) -> Word:
        # predict the length before materializing anything huge
        new_len = sum(len(self.images[i]) for i in word)
        if new_len > MAX_IMAGE_LENGTH:
            raise ImageOverflowError(f"image length {new_len} exceeds "
                                     f"{MAX_IMAGE_LENGTH}")
        return self.apply(word)

    def iterate_letter(self, letter: int, t: int) -> Word:
        """The word ``zeta**t(a)`` for a single letter."""
        word: Word = (letter,)
        for _ in range(t):
            word = self._guarded_apply(word)
        return word

    def power(self, t: int) -> "Substitution":
        """The substitution ``zeta**t`` (images are the t-th iterates)."""
        if t < 1:
            raise ValueError("power must be >= 1")
        images = list(self.images)
        for _ in range(t - 1):
            images = [self._guarded_apply(img) for img in images]
        return Substitution(self.alphabet, images)

    def incidence_matrix(self) -> ExactMatrix:
        """Entry (i, j) counts occurrences of letter i in the image of
        letter j, so that M v(w) = v(zeta(w)) for occurrence vectors.
        Built from the images in one pass over their letters: row i gets
        the pair (j, count) for each letter j whose image contains i."""
        rows: list[dict[int, int]] = [{} for _ in self.images]
        for j, img in enumerate(self.images):
            for i in img:
                rows[i][j] = rows[i].get(j, 0) + 1
        return ExactMatrix.from_nonzeros([tuple(row.items()) for row in rows])


def is_expanding_subst(s: Substitution) -> bool:
    """A substitution is expanding iff its incidence matrix is."""
    return is_expanding(s.incidence_matrix())


def stabilizing_power(s: Substitution) -> int:
    """Least power making the incidence matrix PB-Frobenius (the
    substitution analogue of passing to a Frobenius-form power)."""
    m = s.incidence_matrix()
    dec = scc_blocks(m)
    if not dec.is_expanding():
        raise NotExpandingError("substitution is not expanding")
    return _frobenius_partition(m, dec, split_cyclic=False)[0]


def count_occurrences(w: Sequence, u: Sequence) -> int:
    """Number of (possibly overlapping) occurrences of ``u`` as a factor
    of ``w``."""
    k = len(u)
    if k < 1:
        raise ValueError("pattern must be non-empty")
    u = tuple(u) if not isinstance(u, str) else u
    w = tuple(w) if not isinstance(w, str) else w
    return sum(1 for p in range(len(w) - k + 1) if w[p:p + k] == u)


def count_occurrences_str(w: str, u: str) -> int:
    """Overlap-counting occurrence count for long strings (find loop)."""
    if not u:
        raise ValueError("pattern must be non-empty")
    count = 0
    p = w.find(u)
    while p != -1:
        count += 1
        p = w.find(u, p + 1)
    return count


class FactorAlphabet:
    """The set of length-n factors of the language, in discovery order."""

    __slots__ = ("n", "words", "index", "alphabet")

    def __init__(self, n: int, words: Sequence[Word], alphabet: Alphabet):
        self.n = n
        self.words = tuple(tuple(w) for w in words)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.alphabet = alphabet

    def __len__(self):
        return len(self.words)


def _sliding_factors(word: Word, n: int) -> list[Word]:
    return [word[p:p + n] for p in range(len(word) - n + 1)]


def factor_alphabet(s: Substitution, n: int, cap: int | None = None) -> FactorAlphabet:
    """All length-n factors of the language, computed by saturation.

    Seeds are the length-n factors of ``zeta**K(a_i)`` where ``K`` is the
    smallest power making every image at least ``n`` letters long; the seed
    set is then closed under taking length-n factors of images.  Discovery
    order (BFS from the first letter's seeds) is deterministic and fixes
    the coordinates of the blow-up incidence matrix.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if not is_expanding_subst(s):
        raise NotExpandingError("substitution is not expanding")
    alphabet = s.alphabet
    if cap is None:
        cap = len(alphabet) ** n
    if n == 1:
        return FactorAlphabet(1, [(i,) for i in range(len(alphabet))], alphabet)
    lengths = [1] * len(alphabet)
    k = 0
    while min(lengths) < n:
        # |zeta^{k+1}(a_j)| = sum of |zeta^k(a_i)| over the letters i of zeta(a_j)
        lengths = [sum(lengths[i] for i in img) for img in s.images]
        k += 1
    seed_power = s.power(k)
    found: dict[Word, int] = {}
    queue: list[Word] = []

    def discover(word: Word) -> None:
        if word not in found:
            if len(found) >= cap:
                raise CapExceededError(f"more than {cap} factors discovered")
            found[word] = len(found)
            queue.append(word)

    for letter in range(len(alphabet)):
        for factor in _sliding_factors(seed_power.images[letter], n):
            discover(factor)
    head = 0
    while head < len(queue):
        word = queue[head]
        head += 1
        for factor in _sliding_factors(s.apply(word), n):
            discover(factor)
    return FactorAlphabet(n, queue, alphabet)


def blow_up(s: Substitution, n: int) -> tuple[Substitution, FactorAlphabet]:
    """The level-n blow-up substitution on the alphabet of length-n factors.

    The image of ``w = x_1 ... x_n`` is the ordered list of the first
    ``|zeta(x_1)|`` sliding length-n factors of ``zeta(w)``; in particular
    ``|zeta_n(w)| = |zeta(x_1)|``.
    """
    if n < 2:
        raise ValueError("blow-up level must be >= 2")
    fa = factor_alphabet(s, n)
    names = []
    single = all(len(ltr) == 1 for ltr in s.alphabet.letters)
    for w in fa.words:
        if single:
            names.append("".join(s.alphabet.letters[i] for i in w))
        else:
            names.append("(" + ",".join(s.alphabet.letters[i] for i in w) + ")")
    new_alphabet = Alphabet(names)
    images = []
    for w in fa.words:
        image_of_w = s.apply(w)
        width = len(s.images[w[0]])
        if len(image_of_w) < width + n - 1:
            raise ImageTooShortError(
                f"image of {s.alphabet.decode(w)!r} too short for the "
                f"{n}-window extraction"
            )
        images.append(tuple(
            fa.index[image_of_w[p:p + n]] for p in range(width)
        ))
    return Substitution(new_alphabet, images), fa


# ---------------------------------------------------------------------------
# parsing

def _from_rule_pairs(pairs: Sequence[tuple[str, str]]) -> Substitution:
    if not pairs:
        raise ParseError("no substitution rules")
    lhs_seen = {}
    for lhs, _ in pairs:
        if lhs in lhs_seen:
            raise ParseError(f"duplicate rule for letter {lhs!r}")
        lhs_seen[lhs] = True
    letters_set = set(lhs_seen)
    single = all(len(ltr) == 1 for ltr in letters_set)

    def tokens_of(image: str) -> list[str]:
        out = []
        for tok in image.split():
            if tok in letters_set:
                out.append(tok)
            elif single:
                for ch in tok:
                    if ch not in letters_set:
                        raise ParseError(f"unknown letter {ch!r} in image {image!r}")
                    out.append(ch)
            else:
                raise ParseError(f"unknown letter {tok!r} in image {image!r}")
        return out

    tokenized = [(lhs, tokens_of(img)) for lhs, img in pairs]
    order: list[str] = []
    for lhs, toks in tokenized:
        if lhs not in order:
            order.append(lhs)
        for t in toks:
            if t not in order:
                order.append(t)
    alphabet = Alphabet(order)
    images: dict[str, list[int]] = {}
    for lhs, toks in tokenized:
        images[lhs] = [alphabet.index_of(t) for t in toks]
    return Substitution(alphabet, [images[ltr] for ltr in alphabet.letters])


def parse_substitution(text: str) -> Substitution:
    """Parse the rule format: one ``<letter> -> <image>`` per line, ``#``
    comments, image letters whitespace-separated or a bare string when all
    letters are single characters."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: expected '<letter> -> <image>'")
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs or len(lhs.split()) != 1:
            raise ParseError(f"line {lineno}: invalid left-hand side {lhs!r}")
        pairs.append((lhs, rhs.strip()))
    return _from_rule_pairs(pairs)


def load_substitution(path) -> Substitution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_substitution(fh.read())
