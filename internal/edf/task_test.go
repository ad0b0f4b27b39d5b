package edf

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		want error
	}{
		{"valid", Task{C: 3, P: 100, D: 40}, nil},
		{"valid implicit deadline", Task{C: 1, P: 10, D: 10}, nil},
		{"valid C equals D", Task{C: 5, P: 20, D: 5}, nil},
		{"zero C", Task{C: 0, P: 10, D: 10}, ErrNonPositiveC},
		{"negative C", Task{C: -1, P: 10, D: 10}, ErrNonPositiveC},
		{"zero P", Task{C: 1, P: 0, D: 10}, ErrNonPositiveP},
		{"negative P", Task{C: 1, P: -5, D: 10}, ErrNonPositiveP},
		{"zero D", Task{C: 1, P: 10, D: 0}, ErrNonPositiveD},
		{"negative D", Task{C: 1, P: 10, D: -3}, ErrNonPositiveD},
		{"C exceeds P", Task{C: 11, P: 10, D: 12}, ErrCExceedsP},
		{"C exceeds D", Task{C: 5, P: 10, D: 4}, ErrCExceedsD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.task.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}
}

func TestValidateTasksReportsIndex(t *testing.T) {
	tasks := []Task{
		{C: 1, P: 10, D: 10},
		{C: 0, P: 10, D: 10},
	}
	err := ValidateTasks(tasks)
	if err == nil {
		t.Fatal("ValidateTasks() = nil, want error")
	}
	if !errors.Is(err, ErrNonPositiveC) {
		t.Fatalf("ValidateTasks() = %v, want ErrNonPositiveC", err)
	}
	if !strings.Contains(err.Error(), "task 1") {
		t.Fatalf("error %q does not name the offending index", err)
	}
}

func TestTaskString(t *testing.T) {
	if got, want := (Task{C: 3, P: 100, D: 40}).String(), "task{C=3 P=100 D=40}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestTotalCapacity(t *testing.T) {
	if got := TotalCapacity(nil); got != 0 {
		t.Errorf("TotalCapacity(nil) = %d, want 0", got)
	}
	tasks := []Task{{C: 3, P: 10, D: 10}, {C: 4, P: 20, D: 20}, {C: 5, P: 30, D: 15}}
	if got := TotalCapacity(tasks); got != 12 {
		t.Errorf("TotalCapacity = %d, want 12", got)
	}
}

func TestDeadlinesCoverPeriods(t *testing.T) {
	if !DeadlinesCoverPeriods(nil) {
		t.Error("DeadlinesCoverPeriods(nil) = false, want true")
	}
	if !DeadlinesCoverPeriods([]Task{{C: 1, P: 10, D: 10}, {C: 2, P: 5, D: 5}}) {
		t.Error("DeadlinesCoverPeriods(all D==P) = false, want true")
	}
	if !DeadlinesCoverPeriods([]Task{{C: 1, P: 10, D: 10}, {C: 2, P: 5, D: 9}}) {
		t.Error("DeadlinesCoverPeriods(D==P and D>P) = false, want true")
	}
	if DeadlinesCoverPeriods([]Task{{C: 1, P: 10, D: 12}, {C: 2, P: 5, D: 4}}) {
		t.Error("DeadlinesCoverPeriods(one D<P) = true, want false")
	}
}

func TestSortByDeadline(t *testing.T) {
	tasks := []Task{
		{C: 2, P: 50, D: 30},
		{C: 1, P: 40, D: 10},
		{C: 3, P: 20, D: 30},
		{C: 1, P: 20, D: 30},
	}
	orig := slices.Clone(tasks)
	got := SortByDeadline(tasks)
	// By D, then P, then C.
	want := []Task{tasks[1], tasks[3], tasks[2], tasks[0]}
	if !slices.Equal(got, want) {
		t.Fatalf("SortByDeadline = %v, want %v", got, want)
	}
	if !slices.Equal(tasks, orig) {
		t.Error("SortByDeadline mutated its input")
	}
}
