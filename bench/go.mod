module neusight/bench

go 1.21

require neusight v0.0.0

replace neusight => ../
