"""The pinned certified builds: one home for their angles and verify lines.

BUILDS maps (m, R, M) to what `build-fd --m m --rate R --M M` writes and
`verify` prints on its file: for a family member (m >= 2) built with
`--angles auto`, the file's meta.angles; for a Silver member (m = 1),
which has no angles, None. The line is verify's diversity line, where
checked= counts one determinant per orbit of each HR-orthogonal group's
differences under its sign patterns. test_cli.py runs the CLI on these
entries and test_diversity.py certifies the same codes in-process.
"""

from typing import NamedTuple, Optional


class Pinned(NamedTuple):
    angles: Optional[str]
    line: str

    @property
    def verdict(self):
        """'PASS min_det=0.0840693': the verdict and printed minimum."""
        return " ".join(self.line.split()[1:3])

    @property
    def checked(self):
        """The determinants the line says the certifier took."""
        return int(self.line.rsplit("checked=", 1)[1])


_Q = "0.235619449019"  # 3 pi / 40, every family member's first auto angle
_R5_4 = "0.628318530718"  # pi / 5, the fifth pair's at m = 2
_R3_2 = "0.401425727959"  # 23 pi / 90, the sixth pair's
# m = 3 R = 1's angles, the first eight of R = 9/8's
_M3_R1 = _Q + ",0.558505360638" + ",0.113446401380,0.366519142919" * 3


BUILDS = {
    # the smallest of the tied grid angles: 3 pi / 40 on every pair at
    # R = 1, then one more angle per pair the rate adds
    (2, "1", 4): Pinned(
        ",".join([_Q] * 4),
        "diversity: PASS min_det=0.793893 classes=3280 checked=16"),
    (2, "5/4", 4): Pinned(
        ",".join([_Q] * 4 + [_R5_4]),
        "diversity: PASS min_det=0.0840693 classes=29524 checked=628"),
    (2, "3/2", 4): Pinned(
        ",".join([_Q] * 4 + [_R5_4, _R3_2]),
        "diversity: PASS min_det=0.0385526 classes=265720 checked=22024"),
    # the largest auto build in reach at m = 2: seven searches in one
    # rotation_search call, whose groups merge as the pairs join them
    (2, "7/4", 4): Pinned(
        ",".join([_Q] * 4 + [_R5_4, _R3_2, "1.195550537616"]),
        "diversity: PASS min_det=0.0227589 classes=2391484 checked=174124"),
    (2, "1", 16): Pinned(
        ",".join([_Q] * 4),
        "diversity: PASS min_det=0.734548 classes=2882400 checked=96"),
    # 48 nonzero differences per pair at 16-QAM, and 58,824 prior classes
    # in the last pair's group
    (2, "5/4", 16): Pinned(
        ",".join([_Q] * 4 + ["0.479965544298"]),
        "diversity: PASS min_det=0.00661441 classes=141237624 "
        "checked=390648"),
    # 21523360 classes in all, but four groups of 40, under the cap: each
    # group's second pair merges it with its first
    (3, "1", 4): Pinned(
        _M3_R1,
        "diversity: PASS min_det=0.036929 classes=21523360 checked=96"),
    # The last angle, k = 49 of the 720-point grid, rests on a rounding
    # tie: there and at k = 131 the last pair's group minimum equals the
    # prior's up to ~1.6e-10 relative, so reordering a floating-point sum
    # can move it. A change that moves it must declare it as an output
    # change.
    (3, "1", 16): Pinned(
        ",".join([_Q, "0.532325421858"]
                 + ["0.095993108860", "0.427605666739"] * 3),
        "diversity: PASS min_det=0.0156097 classes=16616465284800 "
        "checked=2496"),
    # the only N = 8 search in reach with a multi-class group: the last
    # pair joins three groups of two pairs, 34,824 orbits of 265,720
    # classes; the code has groups of 2,391,484 and 40 classes
    (3, "9/8", 4): Pinned(
        _M3_R1 + ",0.244346095279",
        "diversity: PASS min_det=0.00111772 classes=193710244 "
        "checked=174148"),
    # Silver punctures the information symbols z4, then z3, never the
    # precoded s4, so every member is full diversity
    (1, "1", 4): Pinned(
        None, "diversity: PASS min_det=1 classes=40 checked=8"),
    (1, "1", 16): Pinned(
        None, "diversity: PASS min_det=1 classes=1200 checked=48"),
    (1, "3/2", 4): Pinned(
        None, "diversity: PASS min_det=0.755929 classes=364 checked=204"),
    (1, "3/2", 16): Pinned(
        None,
        "diversity: PASS min_det=0.755929 classes=58824 checked=30024"),
    (1, "2", 4): Pinned(
        None, "diversity: PASS min_det=0.755929 classes=3280 checked=1680"),
    (1, "2", 16): Pinned(
        None,
        "diversity: PASS min_det=0.755929 classes=2882400 checked=1442400"),
}


def case_id(key):
    """m2-r5_4, m3-r1-M16: a test id for a (m, R, M) key."""
    m, rate, M = key
    return "m%d-r%s%s" % (m, rate.replace("/", "_"),
                          "" if M == 4 else "-M%d" % M)

