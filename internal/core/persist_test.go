package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	profs, m, _ := trained(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.K != m.K || len(m2.Clusters) != len(m.Clusters) {
		t.Fatalf("shape lost: k=%d clusters=%d", m2.K, len(m2.Clusters))
	}
	// Loaded model must make identical predictions and classifications.
	for _, kp := range profs[:6] {
		sr := SampleRuns{CPU: kp.CPUSample, GPU: kp.GPUSample}
		c1, err := m.Classify(sr)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := m2.Classify(sr)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatalf("%s: classification differs after reload (%d vs %d)", kp.KernelID, c1, c2)
		}
		p1, _, err := m.PredictAll(sr)
		if err != nil {
			t.Fatal(err)
		}
		p2, _, err := m2.PredictAll(sr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p1 {
			if p1[i].Perf != p2[i].Perf || p1[i].PowerW != p2[i].PowerW {
				t.Fatalf("%s config %d: predictions differ after reload", kp.KernelID, i)
			}
		}
	}
}

func TestSaveUntrainedModelFails(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("expected version error")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "space_len": 7}`)); err == nil {
		t.Fatal("expected space mismatch error")
	}
}

func TestLoadRejectsMissingPieces(t *testing.T) {
	_, m, _ := trained(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop the tree.
	s := buf.String()
	s = strings.Replace(s, `"tree"`, `"tree_gone"`, 1)
	if _, err := Load(strings.NewReader(s)); err == nil {
		t.Fatal("expected missing-classifier error")
	}
}

// savedDoc is a trained model's Save output as a generic JSON document,
// for tests that corrupt one field.
func savedDoc(t *testing.T) map[string]any {
	t.Helper()
	_, m, _ := trained(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestLoadIsStrict: a model file that would decode loosely — an unknown
// field at the top or inside the tree, trailing data, or a tree node
// testing a feature the classifier does not have (which would panic in
// Tree.Classify) — fails Load, and Save output still loads.
func TestLoadIsStrict(t *testing.T) {
	encode := func(doc map[string]any) string {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	valid := encode(savedDoc(t))
	if _, err := Load(strings.NewReader(valid)); err != nil {
		t.Fatalf("Save output no longer loads: %v", err)
	}
	unknown := savedDoc(t)
	unknown["extra"] = 1
	unknownInTree := savedDoc(t)
	unknownInTree["tree"].(map[string]any)["extra"] = 1
	feature999 := savedDoc(t)
	root := feature999["tree"].(map[string]any)["root"].(map[string]any)
	if root["leaf"] == true {
		t.Fatal("the trained tree is a single leaf")
	}
	root["feature"] = 999
	negative := savedDoc(t)
	negative["tree"].(map[string]any)["root"].(map[string]any)["feature"] = -1
	for name, input := range map[string]string{
		"unknown field":         encode(unknown),
		"unknown field in tree": encode(unknownInTree),
		"trailing data":         valid + "garbage",
		"feature 999":           encode(feature999),
		"negative feature":      encode(negative),
	} {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted the model", name)
		}
	}
}
