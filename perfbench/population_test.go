package main

import (
	"reflect"
	"testing"
)

func TestPopulationFromText(t *testing.T) {
	got, err := populationFromText(`
[scenario]
sessions = 99   # not a phase key here

[phase a]
sessions = 10

[phase b]
churn = 0.5
arrive = 4

[phase c]   # carry, minus departures
depart = 3

[phase d]
sessions = 5
churn = 0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	want := []phasePop{
		{"a", 10, 10, 0},
		{"b", 14, 9, 5},
		{"c", 11, 0, 3},
		// 11 carried, 5 churned, 5 replacements: 11 over the target of
		// 5, so 6 more of the carried leave first.
		{"d", 5, 5, 11},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
	if _, err := populationFromText("[phase a]\narrival-rate = 2\n"); err == nil {
		t.Error("an unsupported population key was accepted")
	}
}
