from spineflow import Check, ValidationReport


class TestCheck:
    def test_fields_repr_and_equality(self):
        check = Check("a", True, "d")
        assert (check.name, check.passed, check.detail) == ("a", True, "d")
        assert repr(check) == "Check(name='a', passed=True, detail='d')"
        assert check == Check("a", True, "d")
        assert check != Check("a", False, "d")
        assert Check("a", False).detail == ""

    def test_nested_reports_share_one_list(self):
        report = ValidationReport()
        report.add("top", True)
        part = report.under("piece P: ")
        part.add("x", False, "why")
        part.under("spine ").add("y", 1)
        assert report.checks is part.checks
        assert report.checks == [Check("top", True, ""),
                                 Check("piece P: x", False, "why"),
                                 Check("piece P: spine y", True, "")]
        assert report.lines()[1:] == ["piece P: x: FAIL (why)",
                                      "piece P: spine y: pass",
                                      "overall: FAIL"]
        assert [c.name for c in report.failures] == ["piece P: x"]
