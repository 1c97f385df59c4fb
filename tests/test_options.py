import io

import pytest

from blocksolve.options import (OptionsDB, BadOptionName, BadOptionValue)


class TestParsing:
    def test_key_value_pairs(self):
        db = OptionsDB().parse_args(["-ksp_type", "cg", "-ksp_rtol", "1e-8"])
        assert db.get("ksp_type") == "cg"
        assert db.get_float("ksp_rtol") == 1e-8

    def test_implicit_flag(self):
        db = OptionsDB().parse_args(["-ksp_monitor", "-pc_type", "lu"])
        assert db.get_bool("ksp_monitor") is True
        assert db.get("pc_type") == "lu"

    def test_trailing_flag(self):
        db = OptionsDB().parse_args(["-pc_type", "lu", "-ksp_view"])
        assert db.get_bool("ksp_view") is True

    def test_negative_numbers_are_values(self):
        db = OptionsDB().parse_args(["-shift", "-1e-8"])
        assert db.get_float("shift") == -1e-8

    def test_prefix_push_pop(self):
        db = OptionsDB().parse_args(
            ["-prefix_push", "fieldsplit_0_", "-ksp_type", "gmres",
             "-prefix_push", "inner_", "-pc_type", "sor",
             "-prefix_pop", "-ksp_rtol", "1e-2", "-prefix_pop",
             "-pc_type", "fieldsplit"])
        assert db.get("fieldsplit_0_ksp_type") == "gmres"
        assert db.get("fieldsplit_0_inner_pc_type") == "sor"
        assert db.get("fieldsplit_0_ksp_rtol") == "1e-2"
        assert db.get("pc_type") == "fieldsplit"

    def test_unbalanced_push_rejected(self):
        with pytest.raises(BadOptionValue):
            OptionsDB().parse_args(["-prefix_push", "a_", "-x", "1"])
        with pytest.raises(BadOptionValue):
            OptionsDB().parse_args(["-prefix_pop"])

    def test_bad_name_rejected(self):
        with pytest.raises(BadOptionName):
            OptionsDB().parse_args(["value_without_dash"])
        with pytest.raises(BadOptionName):
            OptionsDB().set("0starts_with_digit", "1")

    def test_file_with_comments(self):
        text = """
        # solver configuration
        -ksp_type cg   # trailing comment
        -ksp_rtol 1e-8
        -ksp_monitor
        """
        db = OptionsDB().parse_file(io.StringIO(text))
        assert db.get("ksp_type") == "cg"
        assert db.get_bool("ksp_monitor") is True
        assert len(db) == 3


class TestTypedAccess:
    def test_bool_spellings(self):
        db = OptionsDB()
        for word, expect in [("true", True), ("yes", True), ("on", True),
                             ("1", True), ("false", False), ("no", False),
                             ("off", False), ("0", False)]:
            db.set("flag", word)
            assert db.get_bool("flag") is expect

    def test_bad_values_raise(self):
        db = OptionsDB().parse_args(["-a", "abc"])
        with pytest.raises(BadOptionValue):
            db.get_int("a")
        with pytest.raises(BadOptionValue):
            db.get_float("a")
        with pytest.raises(BadOptionValue):
            db.get_bool("a")

    def test_defaults(self):
        db = OptionsDB()
        assert db.get("missing") is None
        assert db.get_int("missing", 5) == 5
        assert db.get_bool("missing", True) is True


class TestBookkeeping:
    def test_usage_tracking(self):
        db = OptionsDB().parse_args(["-a", "1", "-b", "2", "-c", "3"])
        db.get("a")
        db.get_int("c")
        assert db.unused() == ["b"]

    def test_insertion_order(self):
        db = OptionsDB().parse_args(["-z", "1", "-a", "2", "-m", "3"])
        assert db.keys() == ["z", "a", "m"]
