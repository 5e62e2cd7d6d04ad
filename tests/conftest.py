import sys
from pathlib import Path

import pytest

# the test helpers beside this file, and the synthetic corpus generator
# that the scripts share
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent / "scripts"))

from corpusprep.subword import load_vocab
from synthetic import SyntheticLanguage, make_basic_vocab


@pytest.fixture(scope="session")
def lang():
    return SyntheticLanguage()


@pytest.fixture(scope="session")
def small_vocab(tmp_path_factory, lang):
    """Byte-fallback vocabulary plus the synthetic language's words."""
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    tokens = make_basic_vocab(extra_words=sorted(lang.words))
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return load_vocab(path)


@pytest.fixture(scope="session")
def small_vocab_path(tmp_path_factory, lang):
    path = tmp_path_factory.mktemp("vocabp") / "vocab.txt"
    tokens = make_basic_vocab(extra_words=sorted(lang.words))
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return path
