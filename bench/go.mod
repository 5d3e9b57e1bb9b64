module altrun/bench

go 1.22

require altrun v0.0.0

replace altrun => ../
