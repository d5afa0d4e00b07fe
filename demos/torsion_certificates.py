"""Certify torsion elements by bounded consequence search.

Level 1 finds words w with w^e freely equal to a product of conjugates
of relators inside a bounded ball.  Level 2 adjoins the level-1 torsion
and searches again, which is how z in P_{2,2,2} = <x,y,z | x^2, y^2,
x y z^-2> becomes visible: z^2 = x y holds only after x and y die.
Every certificate re-verifies by multiplying out its factor list, and
``check_certificates`` rechecks it against the presentation as well:
each factor's relator must be a relator of P_{2,2,2} or a core
certified one level down.
"""

from torlen import build_pjkl, todd_coxeter, torsion_certificate_search
from torlen.presentation import adjoin_relators
from torlen.torsion import TorsionCertificate, check_certificates
from torlen.words import Word

p = build_pjkl(2, 2, 2)

for level in (1, 2):
    report = torsion_certificate_search(p, level=level)
    print(f"level {level} (exhaustive up to word bound {report.word_bound}):")
    checked = dict(zip(map(id, report.certificates),
                       check_certificates(p, report.certificates)))
    short = [c for c in report.certificates if len(c.word) <= 2]
    for cert in short:
        tag = f" [level {cert.level}]" if cert.level > 1 else ""
        print(f"  ({cert.word.to_text()})^{cert.exponent} = 1{tag}"
              f"  verified={cert.verify()} checked={checked[id(cert)]}")
    rest = len(report.certificates) - len(short)
    if rest:
        print(f"  ... and {rest} longer certified words, all verified:",
              all(c.verify() for c in report.certificates),
              "all checked against P_{2,2,2}:", all(checked.values()))
    print()

# a forged certificate: "z^1 = z", with z itself as the one relator.  The
# product multiplies out, but z is no relator of P_{2,2,2}
z = Word.gen("z")
forged = TorsionCertificate(z, 1, 1, ((Word.empty(), z, 1),))
print("forged (z)^1 = 1: verified =", forged.verify(),
      " checked =", check_certificates(p, [forged])[0])
print()

# cross-check with coset enumeration: killing x and y in P_{2,2,2}
# leaves <z | z^2>, so the full quotient by x, y has order 2
q = adjoin_relators(p, [Word.gen("x"), Word.gen("y")])
table = todd_coxeter(q)
print("index of trivial subgroup after killing x, y:", table.index,
      f"({table.status})")
