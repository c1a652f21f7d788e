"""Reachable images, image-aware extension, and avoiding words.

The subsets that are actually images of the full state set are the only
ones a reset word ever passes through.  Restricting the extension
question to those images weakens it, but the b-series shows the
constant in any linear bound must still be at least 3/2: its worst
image needs 3m-1 letters on n = 2m states.

Run with:  python demos/image_extension.py
"""

from synchromata import (
    FamilySpec,
    StateSet,
    a_odd,
    b_series,
    image_extension_bound,
    named_subset,
    reachable_images,
    shortest_avoiding_word,
    shortest_extending_word,
)

dfa = a_odd(5)
images = reachable_images(dfa)
upper = named_subset(FamilySpec("a-odd", 5), "upper")
print(f"The 9-state odd member has {len(images)} reachable images out of "
      f"{2 ** 9} subsets.")
print(f"Its hard-to-extend upper cycle {upper} is an image? "
      f"{upper in images}")
print("So the quadratic obstruction never arises along an actual reset run.")

print()
dfa = b_series(4)
images = reachable_images(dfa)
pair = StateSet([1, 2], 8)
print(f"The 8-state b-series member has {len(images)} reachable images, and "
      f"{pair} is one of them: {pair in images}")
word = shortest_extending_word(dfa, pair)
print(f"Its shortest extending word has {len(word)} letters: "
      f"{dfa.word_str(word)}")

print()
print("Image-aware worst case over all reachable images, as m grows:")
for m in (4, 5, 6, 7):
    report = image_extension_bound(b_series(m))
    print(f"  n={2 * m}: worst image {report.worst_set} needs "
          f"{report.worst_length} letters (3m-1 = {3 * m - 1}); as a multiple "
          f"of n {report.constant_witness} ~{float(report.constant_witness):.3f}")
print("The ratio (3m-1)/2m climbs towards 3/2, so no constant below 3/2 works.")

print()
print("The same family pins down avoiding words: keeping the self-loop")
print("state out of the image takes n+2 letters, not n.")
for m in (4, 5, 6):
    dfa = b_series(m)
    word = shortest_avoiding_word(dfa, 2 * m)
    print(f"  n={2 * m}: shortest word avoiding q{2 * m} has {len(word)} letters")
