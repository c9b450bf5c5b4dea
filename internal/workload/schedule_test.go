package workload

import (
	"reflect"
	"testing"
)

func testInventory(t *testing.T) *Inventory {
	t.Helper()
	inv, err := NewInventory(
		[]string{"clipB", "clipA", "title"},
		[]Target{{Name: "clipB", Elements: 24}, {Name: "clipA", Elements: 16}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// TestScheduleDeterminism is the determinism property the whole
// harness rests on: the same (seed, inventory) pair must draw the
// identical op list, and a different seed must not.
func TestScheduleDeterminism(t *testing.T) {
	inv := testInventory(t)
	s1, err := Generate(42, inv)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(42, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same (seed, inventory) produced different op lists")
	}
	s3, err := Generate(43, inv)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical op lists")
	}
	if len(s1) != runOps {
		t.Fatalf("op list has %d items, want %d", len(s1), runOps)
	}
}

// TestScheduleShape checks that every op of the mix is drawn, each
// with the method and body its route needs, and that mutation names
// never repeat.
func TestScheduleShape(t *testing.T) {
	items, err := Generate(7, testInventory(t))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	names := map[string]bool{}
	for _, it := range items {
		ops[it.Op]++
		switch it.Op {
		case "cut", "batch":
			if it.Method != "POST" {
				t.Errorf("%s method = %s", it.Op, it.Method)
			}
		default:
			if it.Method != "GET" {
				t.Errorf("%s method = %s", it.Op, it.Method)
			}
		}
		if it.Op == "batch" && len(it.Body) == 0 {
			t.Error("batch item has no body")
		}
		if it.Op == "cut" {
			if names[it.Path] {
				t.Errorf("cut %s drawn twice", it.Path)
			}
			names[it.Path] = true
		}
	}
	for _, m := range mix {
		if ops[m.op] == 0 {
			t.Errorf("op %q never drawn (got %v)", m.op, ops)
		}
	}
}

func TestGenerateNeedsMedia(t *testing.T) {
	inv, err := NewInventory([]string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(1, inv); err == nil {
		t.Error("op list drawn against an inventory with no media")
	}
}

func TestNewInventoryEmpty(t *testing.T) {
	if _, err := NewInventory(nil, nil); err == nil {
		t.Error("empty inventory accepted")
	}
	inv, err := NewInventory([]string{"b", "a"}, []Target{{Name: "z", Elements: 4}, {Name: "a", Elements: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Names[0] != "a" || inv.Media[0].Name != "a" {
		t.Errorf("inventory not sorted: %+v", inv)
	}
}
