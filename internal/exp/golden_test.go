package exp

import "testing"

// The experiments are fully deterministic, so the headline tables can be
// locked byte-for-byte. If an intentional change to the admission control
// or the schemes moves these numbers, the new values belong here AND in
// the experiment catalogue.

const fig185GoldenCSV = `requested,accepted(SDPS),accepted(ADPS)
20,20,20
40,40,40
60,60,60
80,60,80
100,60,100
120,60,110
140,60,110
160,60,110
180,60,110
200,60,110
`

func TestFig185Golden(t *testing.T) {
	got := Fig185().CSV()
	if got != fig185GoldenCSV {
		t.Errorf("Fig. 18.5 output changed.\ngot:\n%s\nwant:\n%s", got, fig185GoldenCSV)
	}
}

const deadlineSweepGoldenCSV = `d,accepted(SDPS),accepted(ADPS),ADPS/SDPS
6,10,10,1.000
8,10,10,1.000
10,10,20,2.000
15,20,40,2.000
20,30,50,1.667
30,50,90,1.800
40,60,110,1.833
60,100,170,1.700
80,130,200,1.538
100,160,200,1.250
`

func TestDeadlineSweepGolden(t *testing.T) {
	got := DeadlineSweep().CSV()
	if got != deadlineSweepGoldenCSV {
		t.Errorf("E8 output changed.\ngot:\n%s\nwant:\n%s", got, deadlineSweepGoldenCSV)
	}
}

const multiSwitchGoldenCSV = `switches,hops,accepted(H-SDPS),accepted(H-ADPS)
1,2,100,150
2,3,6,18
3,4,5,9
4,5,4,6
`

func TestMultiSwitchGolden(t *testing.T) {
	got := MultiSwitch().CSV()
	if got != multiSwitchGoldenCSV {
		t.Errorf("E6 output changed.\ngot:\n%s\nwant:\n%s", got, multiSwitchGoldenCSV)
	}
}

const altSchedGoldenCSV = `scenario,EDF,DM,FIFO
identical C=3 P=100 d=20,6,6,6
identical C=3 P=100 d=40,13,13,13
"tight task (C=2 d=6) present, add C=3 P=100 d=40",12,12,1
"harmonic base (C=2 P=4 d=4), add C=3 P=6 d=6",1,0,0
`

func TestAltSchedGolden(t *testing.T) {
	got := AltSched().CSV()
	if got != altSchedGoldenCSV {
		t.Errorf("E7 output changed.\ngot:\n%s\nwant:\n%s", got, altSchedGoldenCSV)
	}
}

const dpsSearchGoldenCSV = `workload,SDPS,ADPS,ADPS+search,tests run (ADPS),tests run (search)
master→slave (Fig 18.5),60,110,110,560,920
bidirectional master↔slave,120,200,200,890,890
`

func TestDPSSearchGolden(t *testing.T) {
	got := DPSSearch().CSV()
	if got != dpsSearchGoldenCSV {
		t.Errorf("E9 output changed.\ngot:\n%s\nwant:\n%s", got, dpsSearchGoldenCSV)
	}
}
