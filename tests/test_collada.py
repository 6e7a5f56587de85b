from pathlib import Path

import numpy as np
import pytest

from partembed.errors import ParseError
from partembed.ingest import shape_from_collada

FIXTURES = Path(__file__).parent / "fixtures" / "scenes"

SKELETON = """<?xml version="1.0"?>
<COLLADA xmlns="http://www.collada.org/2005/11/COLLADASchema" version="1.4.1">
  <library_geometries>{geoms}</library_geometries>
  <library_visual_scenes>
    <visual_scene id="s" name="test_scene">{nodes}</visual_scene>
  </library_visual_scenes>
  <scene><instance_visual_scene url="#s"/></scene>
</COLLADA>
"""

TRI_GEOM = """
<geometry id="{gid}"><mesh>
  <source id="{gid}_pos">
    <float_array id="{gid}_arr" count="9">0 0 0 1 0 0 0 1 0</float_array>
    <technique_common><accessor source="#{gid}_arr" count="3" stride="3"/></technique_common>
  </source>
  <vertices id="{gid}_v"><input semantic="POSITION" source="#{gid}_pos"/></vertices>
  <triangles count="1"><input semantic="VERTEX" source="#{gid}_v" offset="0"/><p>0 1 2</p></triangles>
</mesh></geometry>
"""


def doc(nodes, geoms=None):
    geoms = geoms if geoms is not None else TRI_GEOM.format(gid="g0")
    return SKELETON.format(geoms=geoms, nodes=nodes).encode()


def test_sedan_fixture_structure():
    rec = shape_from_collada((FIXTURES / "cars" / "sedan.dae").read_bytes(), "sedan", "cars")
    t = rec.hierarchy
    assert len(t) == 7
    names = t.names
    assert names[0] == "car" and "wheels" in names
    assert len(t.leaves) == 5
    assert len(rec.mesh.vertices) == 4 + 4 * 3
    assert len(rec.mesh.triangles) == 2 + 4
    # the wheels group holds all four wheel leaves
    assert len(t.children[names.index("wheels")]) == 4


def test_translate_is_baked_into_leaf_vertices():
    rec = shape_from_collada((FIXTURES / "cars" / "sedan.dae").read_bytes(), "sedan", "cars")
    names = {name: i for i, name in enumerate(rec.hierarchy.names)}
    wfl = names["wheel_front_left"]
    tri_mask = rec.mesh.tri_leaf == wfl
    verts = rec.mesh.vertices[rec.mesh.triangles[tri_mask].reshape(-1)]
    # wheel geometry starts at the origin; node translate moves it to 1.6, 0, 0.5
    assert np.isclose(verts[:, 0].min(), 1.6)
    assert np.isclose(verts[:, 2].max(), 0.5)


def test_single_geometry_node_is_leaf_root():
    rec = shape_from_collada(doc('<node id="a" name="a"><instance_geometry url="#g0"/></node>'),
                             "x")
    assert len(rec.hierarchy) == 1
    assert rec.hierarchy.leaves == (0,)


def test_multiple_top_nodes_get_synthetic_root():
    nodes = ('<node name="a"><instance_geometry url="#g0"/></node>'
             '<node name="b"><instance_geometry url="#g0"/></node>')
    rec = shape_from_collada(doc(nodes), "x")
    assert len(rec.hierarchy) == 3
    assert rec.hierarchy.names[0] == "test_scene"
    assert rec.hierarchy.children[0]


def test_node_with_geometry_and_children_synthesizes_leaf():
    nodes = ('<node name="a"><instance_geometry url="#g0"/>'
             '<node name="b"><instance_geometry url="#g0"/></node></node>')
    rec = shape_from_collada(doc(nodes), "x")
    # a becomes a group with a synthesized leaf named after it, plus b
    assert len(rec.hierarchy) == 3
    t = rec.hierarchy
    kinds = {(name, not c) for name, c in zip(t.names, t.children)}
    assert ("a", False) in kinds and ("a", True) in kinds and ("b", True) in kinds


def test_empty_geometry_leaves_are_pruned():
    empty = '<geometry id="g1"><mesh><source id="s"/></mesh></geometry>'
    geoms = TRI_GEOM.format(gid="g0") + empty
    nodes = ('<node name="r"><node name="a"><instance_geometry url="#g0"/></node>'
             '<node name="b"><instance_geometry url="#g1"/></node></node>')
    rec = shape_from_collada(doc(nodes, geoms), "x")
    assert sorted(rec.hierarchy.names) == ["a", "r"]


def test_malformed_xml_reports_position():
    with pytest.raises(ParseError, match=r"line \d+, column \d+"):
        shape_from_collada(b"<COLLADA><broken", "x")


def test_undefined_geometry_reference():
    with pytest.raises(ParseError, match="references undefined geometry '#nothing'"):
        shape_from_collada((FIXTURES / "cars" / "ghost.dae").read_bytes(), "x")


def test_polylist_quad_rejected_by_name():
    with pytest.raises(ParseError, match="unsupported primitive <polylist> with 4-gons"):
        shape_from_collada((FIXTURES / "chairs" / "quadpanel.dae").read_bytes(), "x")


def test_unsupported_primitive_named():
    geoms = """
    <geometry id="g0"><mesh>
      <source id="p"><float_array id="pa" count="6">0 0 0 1 1 1</float_array>
      <technique_common><accessor source="#pa" count="2" stride="3"/></technique_common></source>
      <vertices id="v"><input semantic="POSITION" source="#p"/></vertices>
      <lines count="1"><input semantic="VERTEX" source="#v" offset="0"/><p>0 1</p></lines>
    </mesh></geometry>"""
    nodes = '<node name="a"><instance_geometry url="#g0"/></node>'
    with pytest.raises(ParseError, match="unsupported primitive <lines>"):
        shape_from_collada(doc(nodes, geoms), "x")


def test_triangle_index_out_of_range():
    geoms = TRI_GEOM.format(gid="g0").replace("<p>0 1 2</p>", "<p>0 1 9</p>")
    nodes = '<node name="a"><instance_geometry url="#g0"/></node>'
    with pytest.raises(ParseError, match="out of range"):
        shape_from_collada(doc(nodes, geoms), "x")


def test_empty_scene_rejected():
    with pytest.raises(ParseError):
        shape_from_collada(doc(""), "x")


def test_rotate_and_scale_compose_in_document_order():
    geoms = TRI_GEOM.format(gid="g0")
    # scale by 2 then translate: translate applies first in world = T @ S order
    nodes = ('<node name="a"><translate>1 0 0</translate><scale>2 2 2</scale>'
             '<instance_geometry url="#g0"/></node>')
    rec = shape_from_collada(doc(nodes, geoms), "x")
    # vertex (1,0,0) -> scaled (2,0,0) -> translated (3,0,0)
    assert np.isclose(rec.mesh.vertices[:, 0].max(), 3.0)

    nodes = '<node name="a"><rotate>0 0 1 90</rotate><instance_geometry url="#g0"/></node>'
    rec = shape_from_collada(doc(nodes, geoms), "x")
    # vertex (1,0,0) rotates to (0,1,0)
    got = sorted(map(tuple, np.round(rec.mesh.vertices, 12).tolist()))
    assert (0.0, 1.0, 0.0) in got


def test_multisource_offsets():
    # two inputs sharing <p> with stride 2: VERTEX at offset 0, NORMAL at 1
    geoms = """
    <geometry id="g0"><mesh>
      <source id="p"><float_array id="pa" count="9">0 0 0 1 0 0 0 1 0</float_array>
      <technique_common><accessor source="#pa" count="3" stride="3"/></technique_common></source>
      <source id="nrm"><float_array id="na" count="3">0 0 1</float_array>
      <technique_common><accessor source="#na" count="1" stride="3"/></technique_common></source>
      <vertices id="v"><input semantic="POSITION" source="#p"/></vertices>
      <triangles count="1">
        <input semantic="VERTEX" source="#v" offset="0"/>
        <input semantic="NORMAL" source="#nrm" offset="1"/>
        <p>0 0 1 0 2 0</p>
      </triangles>
    </mesh></geometry>"""
    nodes = '<node name="a"><instance_geometry url="#g0"/></node>'
    rec = shape_from_collada(doc(nodes, geoms), "x")
    np.testing.assert_array_equal(rec.mesh.triangles, [[0, 1, 2]])


@pytest.mark.parametrize("inputs", [
    # the only input at -1: the index stride would be 0
    '<input semantic="VERTEX" source="#v" offset="-1"/>',
    # -2 beside an offset-0 input: the index would run off the stride
    '<input semantic="VERTEX" source="#v" offset="-2"/>'
    '<input semantic="NORMAL" source="#nrm" offset="0"/>',
], ids=["alone_at_-1", "-2_beside_0"])
def test_negative_input_offset_rejected(inputs):
    geoms = f"""
    <geometry id="g0"><mesh>
      <source id="p"><float_array id="pa" count="9">0 0 0 1 0 0 0 1 0</float_array>
      <technique_common><accessor source="#pa" count="3" stride="3"/></technique_common></source>
      <source id="nrm"><float_array id="na" count="3">0 0 1</float_array>
      <technique_common><accessor source="#na" count="1" stride="3"/></technique_common></source>
      <vertices id="v"><input semantic="POSITION" source="#p"/></vertices>
      <triangles count="1">{inputs}<p>0 1 2</p></triangles>
    </mesh></geometry>"""
    nodes = '<node name="a"><instance_geometry url="#g0"/></node>'
    with pytest.raises(ParseError, match="offset -[12] is negative"):
        shape_from_collada(doc(nodes, geoms), "x")
