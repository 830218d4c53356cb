import pytest

from ribbon_schur.bfile import (
    BFile,
    BFileDiff,
    BFileFormatError,
    compare_with_sequence,
    format_bfile,
    load_bfile,
    parse_bfile,
)
from ribbon_schur.seqcache import FORMAT_VERSION, SequenceCache


class TestParsing:
    def test_basic(self):
        bf = parse_bfile("1 1\n2 2\n3 3\n")
        assert bf.entries == [(1, 1), (2, 2), (3, 3)]
        assert bf.max_index() == 3

    def test_comments_and_blanks(self):
        text = "# header\n\n1 10\n   \n# middle\n2 20\n"
        assert parse_bfile(text).entries == [(1, 10), (2, 20)]

    def test_negative_values_are_fine(self):
        assert parse_bfile("1 -5\n").entries == [(1, -5)]

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("1 1 1\n", 1),
            ("1\n", 1),
            ("one 1\n", 1),
            ("1 x\n", 1),
            ("1 1\n2 2\n2 3\n", 3),
            ("2 2\n1 1\n", 2),
        ],
    )
    def test_malformed_reports_line_number(self, text, lineno):
        with pytest.raises(BFileFormatError) as err:
            parse_bfile(text)
        assert err.value.line_number == lineno
        assert f"line {lineno}" in str(err.value)

    def test_round_trip(self):
        entries = [(1, 1), (2, 4), (5, -3)]
        assert parse_bfile(format_bfile(entries)).entries == entries

    def test_load(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1 7\n2 8\n")
        bf = load_bfile(path)
        assert bf.entries == [(1, 7), (2, 8)]
        assert bf.source == str(path)


class TestComparison:
    def test_clean(self):
        bf = parse_bfile("1 1\n2 2\n3 4\n")
        diff = compare_with_sequence(bf, [1, 2, 4])
        assert diff.clean
        assert diff.compared == 3

    def test_differences(self):
        bf = parse_bfile("1 1\n2 9\n3 4\n")
        diff = compare_with_sequence(bf, [1, 2, 4])
        assert diff.differences == [(2, 9, 2)]

    def test_records(self):
        bf = parse_bfile("1 1\n2 9\n", source="f.txt")
        assert (bf.entries, bf.source, bf.max_index()) == ([(1, 1), (2, 9)], "f.txt", 2)
        assert bf == BFile([(1, 1), (2, 9)], source="f.txt")
        assert repr(bf) == "BFile(entries=[(1, 1), (2, 9)], source='f.txt')"
        assert BFile([]).max_index() == 0
        diff = compare_with_sequence(bf, [1, 2])
        assert diff == BFileDiff(differences=[(2, 9, 2)], compared=2)
        assert repr(diff) == "BFileDiff(differences=[(2, 9, 2)], compared=2)"
        assert (diff.compared, diff.differences, diff.clean) == (2, [(2, 9, 2)], False)
        fresh = BFileDiff()
        assert fresh.differences == [] and fresh.differences is not BFileDiff().differences

    def test_overlap_only(self):
        bf = parse_bfile("1 1\n2 2\n10 99\n")
        diff = compare_with_sequence(bf, [1, 2, 4])
        assert diff.compared == 2
        assert diff.clean


class TestSequenceCache:
    def test_store_and_load(self, tmp_path):
        cache = SequenceCache(tmp_path)
        cache.store("all", 5, [1, 2, 3, 6, 10])
        assert cache.load("all", 5) == [1, 2, 3, 6, 10]

    def test_miss_on_absent(self, tmp_path):
        assert SequenceCache(tmp_path).load("all", 5) is None

    def test_miss_on_wrong_key(self, tmp_path):
        cache = SequenceCache(tmp_path)
        cache.store("all", 5, [1, 2, 3, 6, 10])
        assert cache.load("all", 6) is None
        assert cache.load("lexmin", 5) is None

    def test_version_bump_invalidates(self, tmp_path):
        cache = SequenceCache(tmp_path)
        cache.store("all", 3, [1, 2, 3])
        path = cache.path_for("all", 3)
        stale = path.read_text().replace(
            f"format {FORMAT_VERSION}", f"format {FORMAT_VERSION - 1}"
        )
        path.write_text(stale)
        assert cache.load("all", 3) is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = SequenceCache(tmp_path)
        cache.store("all", 3, [1, 2, 3])
        path = cache.path_for("all", 3)
        path.write_text(path.read_text().replace("2 2", "2 two"))
        assert cache.load("all", 3) is None

    def test_store_validates_length(self, tmp_path):
        with pytest.raises(ValueError):
            SequenceCache(tmp_path).store("all", 3, [1, 2])
