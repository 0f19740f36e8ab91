"""Tests for XUIS generation, serialisation, validation and customisation."""

import pytest

from repro.errors import XuisError, XuisParseError, XuisValidationError
from repro.sqldb import Database
from repro.xuis import (
    Condition,
    Customizer,
    DatabaseResultLocation,
    InputControl,
    OperationSpec,
    ParamSpec,
    RadioControl,
    SelectControl,
    UploadSpec,
    UrlLocation,
    XuisDocument,
    XuisTable,
    assert_valid,
    default_alias,
    generate_default_xuis,
    parse_colid,
    parse_xuis,
    personalise,
    serialize_xuis,
    validate_xuis,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE AUTHOR (author_key VARCHAR(30) PRIMARY KEY, "
        "name VARCHAR(50) NOT NULL)"
    )
    database.execute(
        "CREATE TABLE SIMULATION (simulation_key VARCHAR(30) PRIMARY KEY, "
        "author_key VARCHAR(30) REFERENCES AUTHOR (author_key), "
        "title VARCHAR(80), notes CLOB)"
    )
    database.execute(
        "CREATE TABLE RESULT_FILE (file_name VARCHAR(40), "
        "simulation_key VARCHAR(30) REFERENCES SIMULATION (simulation_key), "
        "download_result DATALINK READ PERMISSION DB, "
        "PRIMARY KEY (file_name, simulation_key))"
    )
    database.execute(
        "INSERT INTO AUTHOR VALUES ('A1', 'Mark Papiani'), ('A2', 'Jasmin Wason')"
    )
    database.execute("INSERT INTO SIMULATION VALUES ('S1', 'A1', 'Channel', NULL)")
    return database


@pytest.fixture
def doc(db):
    return generate_default_xuis(db)


class TestModelBasics:
    def test_parse_colid(self):
        assert parse_colid("author.author_key") == ("AUTHOR", "AUTHOR_KEY")

    def test_parse_colid_rejects_bare(self):
        with pytest.raises(XuisError):
            parse_colid("AUTHOR_KEY")

    def test_condition_ops(self):
        row = {"T.N": 5}
        assert Condition("T.N", "eq", 5).matches(row)
        assert Condition("T.N", "ne", 4).matches(row)
        assert Condition("T.N", "lt", 6).matches(row)
        assert Condition("T.N", "ge", 5).matches(row)
        assert not Condition("T.N", "gt", 5).matches(row)

    def test_condition_like(self):
        assert Condition("T.S", "like", "chan%").matches({"T.S": "channel"})

    def test_condition_missing_column_is_false(self):
        assert not Condition("T.X", "eq", 1).matches({"T.N": 1})

    def test_condition_null_is_false(self):
        assert not Condition("T.N", "eq", 1).matches({"T.N": None})

    def test_condition_char_padding(self):
        assert Condition("T.S", "eq", "ab").matches({"T.S": "ab   "})

    def test_condition_unknown_op(self):
        with pytest.raises(XuisError):
            Condition("T.N", "contains", 1)

    def test_condition_bare_column_fallback(self):
        assert Condition("T.N", "eq", 1).matches({"N": 1})

    def test_operation_applies_all_conditions(self):
        op = OperationSpec(
            "X",
            conditions=[
                Condition("T.A", "eq", 1),
                Condition("T.B", "eq", 2),
            ],
        )
        assert op.applies_to({"T.A": 1, "T.B": 2})
        assert not op.applies_to({"T.A": 1, "T.B": 3})

    def test_operation_requires_name(self):
        with pytest.raises(XuisError):
            OperationSpec("")

    def test_controls_accept_and_default(self):
        select = SelectControl("s", [("a", "A"), ("b", "B")])
        assert select.default_value() == "a"
        assert select.accepts("b") and not select.accepts("z")
        radio = RadioControl("r", [("u", "u speed")])
        assert radio.default_value() == "u"
        free = InputControl("f", default="42")
        assert free.accepts("anything") and free.default_value() == "42"

    def test_document_lookup(self, doc):
        assert doc.table("author").name == "AUTHOR"
        assert doc.column("SIMULATION.TITLE").name == "TITLE"
        with pytest.raises(XuisError):
            doc.table("NOPE")
        with pytest.raises(XuisError):
            doc.column("SIMULATION.NOPE")


class TestGeneration:
    def test_all_tables_present(self, doc):
        assert {t.name for t in doc.tables} == {
            "AUTHOR", "SIMULATION", "RESULT_FILE",
        }

    def test_types_and_sizes(self, doc):
        column = doc.column("AUTHOR.AUTHOR_KEY")
        assert column.type.name == "VARCHAR"
        assert column.type.size == 30
        assert doc.column("SIMULATION.NOTES").type.name == "CLOB"
        assert doc.column("RESULT_FILE.DOWNLOAD_RESULT").type.is_datalink

    def test_samples_from_data(self, doc):
        assert doc.column("AUTHOR.NAME").samples == [
            "Mark Papiani", "Jasmin Wason",
        ]

    def test_pk_refby(self, doc):
        refby = doc.column("AUTHOR.AUTHOR_KEY").pk.refby
        assert refby == ["SIMULATION.AUTHOR_KEY"]
        sim_pk = doc.column("SIMULATION.SIMULATION_KEY").pk.refby
        assert sim_pk == ["RESULT_FILE.SIMULATION_KEY"]

    def test_fk_captured(self, doc):
        fk = doc.column("SIMULATION.AUTHOR_KEY").fk
        assert fk.tablecolumn == "AUTHOR.AUTHOR_KEY"
        assert fk.substcolumn is None

    def test_composite_primary_key(self, doc):
        assert doc.table("RESULT_FILE").primary_key == [
            "RESULT_FILE.FILE_NAME", "RESULT_FILE.SIMULATION_KEY",
        ]

    def test_default_aliases(self, doc):
        assert doc.table("RESULT_FILE").alias == "Result File"
        assert doc.column("SIMULATION.SIMULATION_KEY").alias == "Simulation Key"

    def test_default_alias_function(self):
        assert default_alias("RESULT_FILE") == "Result File"

    def test_default_is_valid(self, doc, db):
        assert validate_xuis(doc, db) == []


class TestSerialisationRoundTrip:
    def test_structure_survives(self, doc):
        text = serialize_xuis(doc)
        again = parse_xuis(text)
        assert {t.name for t in again.tables} == {t.name for t in doc.tables}
        for table in doc.tables:
            other = again.table(table.name)
            assert other.primary_key == table.primary_key
            assert [c.colid for c in other.columns] == [
                c.colid for c in table.columns
            ]
            for mine, theirs in zip(table.columns, other.columns):
                assert mine.type == theirs.type
                assert mine.samples == theirs.samples

    def test_paper_fragment_shape(self, doc):
        text = serialize_xuis(doc)
        assert '<table name="AUTHOR" primaryKey="AUTHOR.AUTHOR_KEY">' in text
        assert "<tablealias>" in text
        assert '<refby tablecolumn="SIMULATION.AUTHOR_KEY"' in text
        assert "<sample>" in text

    def test_operation_round_trip(self, doc):
        op = OperationSpec(
            "GetImage",
            type="JAVA",
            filename="GetImage.class",
            format="jar",
            guest_access=True,
            conditions=[Condition("RESULT_FILE.SIMULATION_KEY", "eq", "S1")],
            location=DatabaseResultLocation(
                "RESULT_FILE.DOWNLOAD_RESULT",
                [Condition("RESULT_FILE.FILE_NAME", "eq", "GetImage.jar")],
            ),
            params=[
                ParamSpec("slice:", SelectControl("slice", [("x0", "x0=0.0")], size=4)),
                ParamSpec("component:", RadioControl("type", [("u", "u speed")])),
                ParamSpec("note:", InputControl("note", default="hi")),
            ],
            description="Visualise a slice",
        )
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").operations.append(op)
        again = parse_xuis(serialize_xuis(doc))
        parsed = again.column("RESULT_FILE.DOWNLOAD_RESULT").operations[0]
        assert parsed.name == "GetImage"
        assert parsed.guest_access is True
        assert parsed.conditions[0].value == "S1"
        assert parsed.location.colid == "RESULT_FILE.DOWNLOAD_RESULT"
        assert parsed.location.conditions[0].value == "GetImage.jar"
        assert isinstance(parsed.params[0].control, SelectControl)
        assert parsed.params[0].control.size == 4
        assert isinstance(parsed.params[1].control, RadioControl)
        assert isinstance(parsed.params[2].control, InputControl)
        assert parsed.params[2].control.default == "hi"
        assert parsed.description == "Visualise a slice"

    def test_url_operation_round_trip(self, doc):
        op = OperationSpec(
            "SDB", guest_access=True,
            location=UrlLocation("http://quagga.ecs.soton.ac.uk:8080/servlet/SDBservlet"),
            description="NCSA Scientific Data Browser",
        )
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").operations.append(op)
        again = parse_xuis(serialize_xuis(doc))
        parsed = again.column("RESULT_FILE.DOWNLOAD_RESULT").operations[0]
        assert isinstance(parsed.location, UrlLocation)
        assert parsed.location.url.endswith("SDBservlet")

    def test_upload_round_trip(self, doc):
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").upload = UploadSpec(
            guest_access=False,
            conditions=[Condition("RESULT_FILE.SIMULATION_KEY", "eq", "S1")],
        )
        again = parse_xuis(serialize_xuis(doc))
        upload = again.column("RESULT_FILE.DOWNLOAD_RESULT").upload
        assert upload is not None
        assert upload.guest_access is False
        assert upload.conditions[0].colid == "RESULT_FILE.SIMULATION_KEY"

    def test_numeric_condition_round_trip(self, doc):
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").operations.append(
            OperationSpec(
                "N", location=UrlLocation("http://x/y"),
                conditions=[Condition("SIMULATION.TITLE", "ne", 42)],
            )
        )
        again = parse_xuis(serialize_xuis(doc))
        cond = again.column("RESULT_FILE.DOWNLOAD_RESULT").operations[0].conditions[0]
        assert cond.value == 42

    def test_hidden_flags_round_trip(self, doc):
        doc.table("AUTHOR").hidden = True
        doc.column("SIMULATION.NOTES").hidden = True
        again = parse_xuis(serialize_xuis(doc))
        assert again.table("AUTHOR").hidden
        assert again.column("SIMULATION.NOTES").hidden


class TestParseErrors:
    def test_malformed_xml(self):
        with pytest.raises(XuisParseError):
            parse_xuis("<xuis><table></xuis>")

    def test_wrong_root(self):
        with pytest.raises(XuisParseError):
            parse_xuis("<notxuis/>")

    def test_missing_required_attribute(self):
        with pytest.raises(XuisParseError):
            parse_xuis('<xuis><table primaryKey=""/></xuis>')

    def test_missing_type(self):
        with pytest.raises(XuisParseError):
            parse_xuis(
                '<xuis><table name="T" primaryKey="">'
                '<column name="A" colid="T.A"/></table></xuis>'
            )

    def test_bad_boolean(self):
        with pytest.raises(XuisParseError):
            parse_xuis(
                '<xuis><table name="T" primaryKey="" hidden="maybe">'
                "</table></xuis>"
            )


class TestValidation:
    def test_dangling_refby(self, doc):
        doc.column("AUTHOR.AUTHOR_KEY").pk.refby.append("GHOST.COL")
        problems = validate_xuis(doc)
        assert any("GHOST.COL" in p for p in problems)

    def test_substcolumn_in_wrong_table(self, doc):
        from repro.xuis.model import XuisFk

        doc.column("SIMULATION.AUTHOR_KEY").fk = XuisFk(
            "AUTHOR.AUTHOR_KEY", "SIMULATION.TITLE"
        )
        problems = validate_xuis(doc)
        assert any("not in referenced table" in p for p in problems)

    def test_operation_without_location(self, doc):
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").operations.append(
            OperationSpec("Broken")
        )
        problems = validate_xuis(doc)
        assert any("no <location>" in p for p in problems)

    def test_location_must_be_datalink(self, doc):
        doc.column("RESULT_FILE.DOWNLOAD_RESULT").operations.append(
            OperationSpec(
                "Broken", location=DatabaseResultLocation("AUTHOR.NAME")
            )
        )
        problems = validate_xuis(doc)
        assert any("not a DATALINK" in p for p in problems)

    def test_upload_on_non_datalink(self, doc):
        doc.column("AUTHOR.NAME").upload = UploadSpec()
        problems = validate_xuis(doc)
        assert any("non-DATALINK" in p for p in problems)

    def test_catalog_type_mismatch(self, doc, db):
        doc.column("AUTHOR.NAME").type.name = "INTEGER"
        problems = validate_xuis(doc, db)
        assert any("INTEGER in the XUIS" in p or "VARCHAR" in p for p in problems)

    def test_catalog_missing_table(self, db):
        doc = XuisDocument([XuisTable("GHOST", columns=[])])
        problems = validate_xuis(doc, db)
        assert any("no such table GHOST" in p for p in problems)
        assert any("has no columns" in p for p in problems)

    def test_assert_valid_raises(self, doc):
        doc.column("AUTHOR.AUTHOR_KEY").pk.refby.append("GHOST.COL")
        with pytest.raises(XuisValidationError):
            assert_valid(doc)

    def test_assert_valid_passes(self, doc, db):
        assert_valid(doc, db)


class TestCustomisation:
    def test_aliases(self, doc):
        custom = (
            Customizer(doc)
            .table_alias("SIMULATION", "Numerical Simulations")
            .column_alias("SIMULATION.TITLE", "Simulation Title")
            .document
        )
        assert custom.table("SIMULATION").display_name == "Numerical Simulations"
        assert custom.column("SIMULATION.TITLE").display_name == "Simulation Title"
        # base untouched (copy-on-construct)
        assert doc.table("SIMULATION").alias == "Simulation"

    def test_hide(self, doc):
        custom = Customizer(doc).hide_table("AUTHOR").hide_column(
            "SIMULATION.NOTES"
        ).document
        assert custom.table("AUTHOR").hidden
        assert [t.name for t in custom.visible_tables()] == [
            "RESULT_FILE", "SIMULATION",
        ]
        assert all(
            c.name != "NOTES"
            for c in custom.table("SIMULATION").visible_columns()
        )

    def test_substitute_fk(self, doc):
        custom = Customizer(doc).substitute_fk(
            "SIMULATION.AUTHOR_KEY", "AUTHOR.NAME"
        ).document
        assert custom.column("SIMULATION.AUTHOR_KEY").fk.substcolumn == "AUTHOR.NAME"

    def test_substitute_fk_wrong_table(self, doc):
        with pytest.raises(XuisError):
            Customizer(doc).substitute_fk(
                "SIMULATION.AUTHOR_KEY", "SIMULATION.TITLE"
            )

    def test_substitute_without_fk(self, doc):
        with pytest.raises(XuisError):
            Customizer(doc).substitute_fk("SIMULATION.TITLE", "AUTHOR.NAME")

    def test_user_defined_relationship(self, doc):
        custom = Customizer(doc).add_relationship(
            "SIMULATION.TITLE", "RESULT_FILE.FILE_NAME"
        ).document
        assert custom.column("SIMULATION.TITLE").fk.tablecolumn == (
            "RESULT_FILE.FILE_NAME"
        )

    def test_samples(self, doc):
        custom = Customizer(doc).set_samples(
            "AUTHOR.NAME", ["user defined sample 1"]
        ).document
        assert custom.column("AUTHOR.NAME").samples == ["user defined sample 1"]

    def test_attach_and_remove_operation(self, doc):
        op = OperationSpec("X", location=UrlLocation("http://x/y"))
        customizer = Customizer(doc).attach_operation(
            "RESULT_FILE.DOWNLOAD_RESULT", op
        )
        assert customizer.document.column(
            "RESULT_FILE.DOWNLOAD_RESULT"
        ).operations[0].name == "X"
        with pytest.raises(XuisError):
            customizer.attach_operation("RESULT_FILE.DOWNLOAD_RESULT", op)
        customizer.remove_operation("RESULT_FILE.DOWNLOAD_RESULT", "X")
        with pytest.raises(XuisError):
            customizer.remove_operation("RESULT_FILE.DOWNLOAD_RESULT", "X")

    def test_upload_requires_datalink(self, doc):
        with pytest.raises(XuisError):
            Customizer(doc).allow_upload("AUTHOR.NAME", UploadSpec())

    def test_personalise(self, doc):
        variants = personalise(
            doc,
            {
                "guest": lambda c: c.hide_table("AUTHOR"),
                "admin": lambda c: c.set_title("Admin view"),
            },
        )
        assert variants["guest"].table("AUTHOR").hidden
        assert not variants["admin"].table("AUTHOR").hidden
        assert variants["admin"].title == "Admin view"
        assert not doc.table("AUTHOR").hidden


class TestConditionWorkDoneOnce:
    """A condition splits its colid and translates its LIKE pattern when it
    is built; matching a rendered row does neither again."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.sqldb import expressions
        from repro.xuis import model

        calls = {"parse_colid": 0, "compile_pattern": 0}
        real_parse, real_compile = model.parse_colid, expressions.Like.compile_pattern

        def parse(colid):
            calls["parse_colid"] += 1
            return real_parse(colid)

        def compile_pattern(pattern):
            calls["compile_pattern"] += 1
            return real_compile(pattern)

        monkeypatch.setattr(model, "parse_colid", parse)
        monkeypatch.setattr(expressions.Like, "compile_pattern",
                            staticmethod(compile_pattern))
        expressions.like_matcher.cache_clear()
        return calls

    def test_eq(self, counted):
        condition = Condition("T.S", "eq", "ab")
        counted["parse_colid"] = 0
        rows = [{"T.S": "ab  "}, {"S": "ab"}, {"T.S": "abc"}, {"T.S": None}]
        assert [condition.matches(row) for row in rows] == [True, True, False, False]
        assert counted["parse_colid"] == 0

    def test_like(self, counted):
        condition = Condition("T.S", "like", "a_c%")
        built = counted["compile_pattern"]
        rows = [{"T.S": "abc"}, {"T.S": "abcd  "}, {"T.S": "ac"}, {"T.S": 7}]
        assert [condition.matches(row) for row in rows] == [True, True, False, False]
        assert counted["compile_pattern"] == built == 1
        assert Condition("T.N", "like", "1%").matches({"T.N": 12})

    def test_missing_column(self, counted):
        condition = Condition("T.X", "eq", 1)
        assert not condition.matches({"T.N": 1})
        assert not condition.matches({})

    def test_bad_colid_still_raises_when_matched(self):
        condition = Condition("NOTQUALIFIED", "eq", 1)
        with pytest.raises(XuisError):
            condition.matches({"NOTQUALIFIED": 1})
