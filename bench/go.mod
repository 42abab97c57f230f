module e2ebatch/bench

go 1.22

require e2ebatch v0.0.0

replace e2ebatch => ../
