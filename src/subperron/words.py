"""Substitutions on finite alphabets, their languages, and blow-ups.

Letters are strings (so that blow-up letters, which stand for length-n
words, are first-class letters themselves); words are tuples of letter
indices, except inside the factor engine ``_Language``, which spells them
as strings of code points.  A substitution maps each letter to a finite
word and extends to words by concatenation.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from .errors import ImageOverflowError, NotExpandingError, ParseError
from .matrices import (BlockDecomposition, ExactMatrix, _frobenius_exponents,
                       is_expanding, scc_blocks)

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
        # a letter is valid iff it is non-empty and holds no whitespace
        # (str.isspace), that is iff it splits into itself
        if " ".join(self.letters).split() != list(self.letters):
            bad = next(ltr for ltr in self.letters if ltr.split() != [ltr])
            raise ValueError(f"invalid letter {bad!r}")
        self._index = dict(zip(self.letters, range(len(self.letters))))
        self._single_char = max(map(len, self.letters)) == 1

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
        imgs = tuple(tuple(map(int, img)) for img in images)
        used = set().union(*imgs)
        if used and (min(used) < 0 or max(used) >= len(alphabet)):
            bad = next(i for img in imgs for i in img
                       if not 0 <= i < len(alphabet))
            raise ValueError(f"letter index {bad} out of range")
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

    def power(self, t: int) -> "Substitution":
        """The substitution ``zeta**t`` (images are the t-th iterates)."""
        if t < 1:
            raise ValueError("power must be >= 1")
        table = images = tuple(map(_code, self.images))
        for _ in range(t - 1):
            images = [_translate(img, table) for img in images]
        return Substitution(self.alphabet, list(map(_indices, images)))

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
    return _stabilizing(s)[0]


def _stabilizing(s: Substitution) -> tuple[int, ExactMatrix, BlockDecomposition]:
    """The stabilizing power, the incidence matrix and its decomposition."""
    m = s.incidence_matrix()
    dec = scc_blocks(m)
    if not dec.is_expanding():
        raise NotExpandingError("substitution is not expanding")
    return _frobenius_exponents(m, dec)[0], m, dec


class _Language:
    """The length-n factors of the language of an expanding substitution
    ``zs``, one length at a time (``factors(n)`` and their images under
    ``z``, ``images(n)``, are memoized).

    Every word here is a string of code points ``chr(i)``, ``i`` the letter
    index, so that applying a substitution (``str.translate``), slicing and
    hashing run in C; the code points of two words order them as their
    index tuples do.  ``self.zs`` and ``self.z`` are the images of the
    letters, which also serve as ``str.translate`` tables.

    ``z = zs**p`` is the least power whose images all have length >= 2 and
    ``shortest`` its shortest image length.  Level 1 is the letters; level 2
    the seed pairs closed under straddles (the last letter of ``z(c)`` and
    the first of ``z(d)``, for a pair ``cd``); level ``n >= 3`` every window
    of ``z(v)`` over the factors ``v`` of length ``source(n)``, and the
    seeds.  A length-n factor of ``zs**t(a_i)``, ``t >= K + p`` (``K`` as in
    ``seeds``), lies inside ``z(v)`` for a length-``source(n)`` factor ``v``
    of ``zs**(t - p)(a_i)``, or straddles two images when ``n = 2``, so
    these are all of them.  Keys come in order of first appearance."""

    def __init__(self, zs: Substitution):
        self.zs = tuple(map(_code, zs.images))
        letters = tuple(map(chr, range(len(self.zs))))
        # the letters under zs**0, zs**1, ...; seeds() appends higher powers
        its = self._iterates = [letters, self.zs]
        while min(map(len, its[-1])) < 2:
            its.append([_translate(w, self.zs) for w in its[-1]])
        self.p, self.z = len(its) - 1, its[-1]
        self.shortest = min(map(len, self.z))
        self._levels: dict[int, tuple[str, ...]] = {1: letters}
        self._images: dict[int, list[str]] = {}

    def source(self, n: int) -> int:
        """The length ``l = 1 + ceil((n - 1) / m)`` whose images under ``z``
        hold the length-``n`` factors, ``n >= 3``: a window that starts in
        ``z(v_1)`` ends inside ``z(v_l)``."""
        return 2 + (n - 2) // self.shortest

    def factors(self, n: int) -> tuple[str, ...]:
        if n not in self._levels:
            found = dict.fromkeys(self.seeds(n))
            if n == 2:
                z = self.z
                queue = list(found)
                for c, d in queue:  # grows while it is walked
                    straddle = z[ord(c)][-1] + z[ord(d)][0]
                    if straddle not in found:
                        found[straddle] = None
                        queue.append(straddle)
            else:
                windows: dict[str, None] = {}
                for image in self.images(self.source(n)):
                    for j in range(len(image) - n + 1):
                        windows[image[j:j + n]] = None
                windows.update(found)
                found = windows
            self._levels[n] = tuple(found)
        return self._levels[n]

    def images(self, n: int) -> list[str]:
        """The images under ``z`` of the length-n factors, in their order."""
        if n not in self._images:
            z = self.z
            self._images[n] = [w.translate(z) for w in self.factors(n)]
        return self._images[n]

    def seeds(self, n: int) -> Iterator[str]:
        """The length-n windows of ``zs**(K + r)(a_i)`` for ``r < p``, ``K``
        the least power at which every such word has ``n`` letters.  At
        ``n = 2``, ``K = p``: they hold every pair inside an image of ``z``."""
        its = self._iterates
        while min(map(len, its[-1])) < n:
            its.append([_translate(w, self.zs) for w in its[-1]])
        k = next(k for k, ws in enumerate(its) if min(map(len, ws)) >= n)
        while len(its) < k + self.p:
            its.append([_translate(w, self.zs) for w in its[-1]])
        for ws in its[k:k + self.p]:
            for word in ws:
                for j in range(len(word) - n + 1):
                    yield word[j:j + n]


def _translate(word: str, table: Sequence[str]) -> str:
    """The image of a code-point string under the substitution whose images
    are ``table``, refused before it is built when longer than
    ``MAX_IMAGE_LENGTH``; ``Counter`` counts each letter in one C loop."""
    new_len = sum(k * len(table[ord(c)]) for c, k in Counter(word).items())
    if new_len > MAX_IMAGE_LENGTH:
        raise ImageOverflowError(f"image length {new_len} exceeds "
                                 f"{MAX_IMAGE_LENGTH}")
    return word.translate(table)


def _code(word: Sequence[int]) -> str:
    """The code-point string of an index tuple."""
    return "".join(map(chr, word))


def _indices(word: str) -> Word:
    """The index tuple of a code-point string."""
    try:
        return tuple(word.encode("latin-1"))  # code points below 256
    except UnicodeEncodeError:
        return tuple(map(ord, word))


class FactorAlphabet:
    """The set of length-n factors of the language, in increasing order of
    their index tuples."""

    __slots__ = ("n", "words", "index", "alphabet")

    def __init__(self, n: int, words: Iterable[Word], alphabet: Alphabet):
        self.n = n
        self.words = tuple(tuple(w) for w in words)
        self.index = {w: k for k, w in enumerate(self.words)}
        self.alphabet = alphabet

    def __len__(self):
        return len(self.words)


def factor_alphabet(s: Substitution, n: int) -> FactorAlphabet:
    """All length-n factors of the language, in increasing order of their
    index tuples, which fixes the coordinates of the blow-up."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if not is_expanding_subst(s):
        raise NotExpandingError("substitution is not expanding")
    return FactorAlphabet(n, map(_indices, sorted(_Language(s).factors(n))),
                          s.alphabet)


def blow_up(s: Substitution, n: int) -> tuple[Substitution, FactorAlphabet]:
    """The level-n blow-up substitution on the length-n factors, in the
    order of ``factor_alphabet``: the image of ``w = x_1 ... x_n`` is the
    list of the first ``|zeta(x_1)|`` length-n windows of ``zeta(w)``."""
    # a level below 2 is reported first, by ``_blow_up``
    if n >= 2 and not is_expanding_subst(s):
        raise NotExpandingError("substitution is not expanding")
    return _blow_up(s, n)


def _blow_up(s: Substitution, n: int) -> tuple[Substitution, FactorAlphabet]:
    """``blow_up`` of a substitution known to be expanding, on the factors
    of ``_Language(s)``.  An expanding substitution erases no letter, so
    the windows always fit."""
    if n < 2:
        raise ValueError("blow-up level must be >= 2")
    language = _Language(s)
    words = sorted(language.factors(n))
    index = dict(zip(words, range(len(words))))
    zeta = language.zs
    heads = []
    for u in words:
        image = u.translate(zeta)
        heads.append(tuple(index[image[j:j + n]]
                           for j in range(len(zeta[ord(u[0])]))))
    # a blow-up letter spells its factor: "abc", or "(x,y,z)"
    if s.alphabet._single_char:
        names = [u.translate(s.alphabet.letters) for u in words]
    else:
        spell = [ltr + "," for ltr in s.alphabet.letters]
        names = ["(" + u.translate(spell)[:-1] + ")" for u in words]
    fa = FactorAlphabet(n, map(_indices, words), s.alphabet)
    return Substitution(Alphabet(names), heads), fa


# ---------------------------------------------------------------------------
# parsing

def _from_rule_pairs(pairs: Sequence[tuple[str, str]]) -> Substitution:
    if not pairs:
        raise ParseError("no substitution rules")
    letters_set: set[str] = set()
    for lhs, _ in pairs:
        if lhs in letters_set:
            raise ParseError(f"duplicate rule for letter {lhs!r}")
        letters_set.add(lhs)
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
    # letters in order of first appearance, left-hand sides and images alike
    alphabet = Alphabet(dict.fromkeys(
        t for lhs, toks in tokenized for t in (lhs, *toks)))
    images = {lhs: [alphabet.index_of(t) for t in toks]
              for lhs, toks in tokenized}
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
